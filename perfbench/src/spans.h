// Spans recorded by the traced run around the calls it makes into the
// program's public functions. They are kept in memory and written out
// once, as a Chrome trace, when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::uint64_t op = 0;  ///< operation the span belongs to
    std::size_t id = 0;
    std::size_t parent = 0;  ///< 0: none (ids start at 1)
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  SpanLog();

  /// Runs fn() inside a span of operation `op`, nested under the
  /// innermost open span; returns the span's wall time in ms.
  template <typename F>
  double span(std::uint64_t op, std::string name, F&& fn) {
    const std::size_t at = open(op, std::move(name));
    fn();
    return close(at);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON; each event's args carry op, id and parent.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::size_t open(std::uint64_t op, std::string name);
  double close(std::size_t at);

  double epoch_s_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace perfbench
