#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

SpanLog::SpanLog() : epoch_s_(now_s()) {}

std::size_t SpanLog::open(std::uint64_t op, std::string name) {
  Span s;
  s.op = op;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = std::move(name);
  s.start_us = (now_s() - epoch_s_) * 1e6;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanLog::close(std::size_t at) {
  Span& s = spans_[at];
  s.end_us = (now_s() - epoch_s_) * 1e6;
  open_.pop_back();
  return (s.end_us - s.start_us) * 1e-3;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"op\":%llu,\"id\":%zu,"
                  "\"parent\":%zu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                  s.end_us - s.start_us, static_cast<unsigned long long>(s.op),
                  s.id, s.parent);
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
