#include "oracle.h"

#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "hec/model/characterize.h"
#include "hec/sweep/sweep.h"
#include "hec/workloads/workload.h"

namespace perfbench {

namespace {

struct Request {
  std::int32_t query = 0;
  std::int32_t program = 0;
  std::int32_t npools = 0;
  std::int32_t pools[3] = {0, 0, 0};
};

constexpr std::uint64_t kFailed = std::numeric_limits<std::uint64_t>::max();

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// False on EOF or error before `size` bytes arrived.
bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

Frontier answer(const Request& req,
                std::map<std::pair<int, int>, std::unique_ptr<hec::NodeTypeModel>>& models) {
  const hec::Workload workload =
      hec::find_workload(kPrograms.at(static_cast<std::size_t>(req.program)));
  const auto model = [&](NodeType type) -> const hec::NodeTypeModel& {
    auto& slot = models[{req.program, static_cast<int>(type)}];
    if (!slot) {
      slot = std::make_unique<hec::NodeTypeModel>(
          hec::build_node_model(spec_of(type), workload));
    }
    return *slot;
  };
  const double units = workload.analysis_units;
  switch (static_cast<Oracle::Query>(req.query)) {
    case Oracle::Query::kTwoReference:
      return hec::sweep_frontier_reference(
                 model(NodeType::kA9), model(NodeType::kK10),
                 {req.pools[0], req.pools[1]}, units)
          .frontier;
    case Oracle::Query::kTwoEngine:
      return hec::sweep_frontier(model(NodeType::kA9), model(NodeType::kK10),
                                 {req.pools[0], req.pools[1]}, units)
          .frontier;
    case Oracle::Query::kMultiReference: {
      std::vector<const hec::NodeTypeModel*> ms = {
          &model(NodeType::kA9), &model(NodeType::kA15), &model(NodeType::kK10)};
      const std::vector<int> limits(req.pools, req.pools + 3);
      return hec::sweep_multi_frontier_reference(ms, limits, units).frontier;
    }
  }
  throw std::invalid_argument("unknown oracle query");
}

[[noreturn]] void serve(int request_fd, int reply_fd) {
  std::map<std::pair<int, int>, std::unique_ptr<hec::NodeTypeModel>> models;
  Request req;
  while (read_all(request_fd, &req, sizeof req)) {
    std::uint64_t count = kFailed;
    Frontier frontier;
    try {
      frontier = answer(req, models);
      count = frontier.size();
    } catch (...) {
      count = kFailed;
    }
    if (!write_all(reply_fd, &count, sizeof count)) break;
    for (const hec::TimeEnergyPoint& p : frontier) {
      const double te[2] = {p.t_s, p.energy_j};
      const std::uint64_t tag = p.tag;
      if (!write_all(reply_fd, te, sizeof te) ||
          !write_all(reply_fd, &tag, sizeof tag)) {
        ::_exit(1);
      }
    }
  }
  ::_exit(0);
}

}  // namespace

Oracle::Oracle() {
  int requests[2];
  int replies[2];
  if (::pipe2(requests, O_CLOEXEC) != 0 || ::pipe2(replies, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("oracle pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("oracle fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::close(requests[1]);
    ::close(replies[0]);
    serve(requests[0], replies[1]);
  }
  ::close(requests[0]);
  ::close(replies[1]);
  request_fd_ = requests[1];
  reply_fd_ = replies[0];
  pid_ = pid;
}

Oracle::~Oracle() { stop(); }

void Oracle::stop() {
  if (request_fd_ >= 0) ::close(request_fd_);
  if (reply_fd_ >= 0) ::close(reply_fd_);
  request_fd_ = reply_fd_ = -1;
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

const Frontier& Oracle::ask(Query query, int program,
                            const std::vector<int>& pools) {
  const auto key = std::make_tuple(static_cast<int>(query), program, pools);
  if (const auto it = cache_.find(key); it != cache_.end()) return it->second;
  if (request_fd_ < 0 || pools.size() > 3) throw std::runtime_error("oracle unavailable");
  Request req;
  req.query = static_cast<std::int32_t>(query);
  req.program = program;
  req.npools = static_cast<std::int32_t>(pools.size());
  for (std::size_t i = 0; i < pools.size(); ++i) req.pools[i] = pools[i];
  std::uint64_t count = 0;
  if (!write_all(request_fd_, &req, sizeof req) ||
      !read_all(reply_fd_, &count, sizeof count)) {
    throw std::runtime_error("oracle process died");
  }
  if (count == kFailed) throw std::runtime_error("oracle failed on its query");
  Frontier frontier(count);
  for (hec::TimeEnergyPoint& p : frontier) {
    double te[2];
    std::uint64_t tag = 0;
    if (!read_all(reply_fd_, te, sizeof te) || !read_all(reply_fd_, &tag, sizeof tag)) {
      throw std::runtime_error("oracle reply truncated");
    }
    p = {te[0], te[1], static_cast<std::size_t>(tag)};
  }
  return cache_.emplace(key, std::move(frontier)).first->second;
}

}  // namespace perfbench
