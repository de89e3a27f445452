// The socket mesh of one workload run: forks the process groups, connects
// the endpoint, and tears both down in the order the transport requires
// (endpoint released on every group before the parent reaps). Step tokens
// over plain pipes let a time-boxed primary tell the other groups how many
// steps to take without sending anything over the measured transport.
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "support/assert.hpp"
#include "vmpi/socket_transport.hpp"

namespace perfbench {

class Mesh {
 public:
  /// Forks `groups` - 1 children (the caller must not have spawned a thread
  /// yet) and connects every group to a fresh rendezvous directory.
  Mesh(int groups, int ranks) : dir_(canb::vmpi::make_rendezvous_dir()) {
    tokens_.resize(static_cast<std::size_t>(groups - 1));
    for (auto& fds : tokens_) CANB_REQUIRE(::pipe(fds.data()) == 0, "pipe() failed");
    std::fflush(nullptr);  // a child must not inherit unwritten output
    pg_ = std::make_unique<canb::vmpi::ProcessGroup>(groups);
    // The primary keeps every write end; child g keeps only its read end.
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const bool keep_read = static_cast<int>(i) + 1 == group();
      const bool keep_write = primary();
      close_fd(tokens_[i][0], keep_read);
      close_fd(tokens_[i][1], keep_write);
    }
    canb::vmpi::SocketConfig sc;
    sc.ranks = ranks;
    sc.groups = groups;
    sc.group = group();
    sc.dir = dir_;
    transport_ = std::make_shared<canb::vmpi::SocketTransport>(sc);
  }
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;
  ~Mesh() {
    transport_.reset();
    close_tokens();
  }

  int group() const noexcept { return pg_->group(); }
  bool primary() const noexcept { return pg_->primary(); }
  const std::shared_ptr<canb::vmpi::SocketTransport>& transport() const { return transport_; }

  /// Primary: tells every other group whether to take one more step.
  void send_token(bool go) {
    const char token = go ? 'g' : 's';
    for (const auto& fds : tokens_)
      CANB_REQUIRE(::write(fds[1], &token, 1) == 1, "step token write failed");
  }
  /// Other groups: whether the primary takes one more step.
  bool recv_token() {
    char token = 's';
    const ssize_t got = ::read(tokens_[static_cast<std::size_t>(group() - 1)][0], &token, 1);
    return got == 1 && token == 'g';
  }

  /// Ends the mesh. The endpoint is released first (its destructor runs the
  /// flush + close barrier while every group is alive). A child then writes
  /// `child_report` where the primary can read it and exits; the primary
  /// reaps every child and returns their reports in group order.
  std::vector<std::string> finish(const std::string& child_report) {
    transport_.reset();
    close_tokens();
    if (!primary()) {
      std::ofstream(report_path(group())) << child_report;
      std::_Exit(0);
    }
    const int status = pg_->wait_children();
    std::vector<std::string> reports;
    for (int g = 1; g <= static_cast<int>(tokens_.size()); ++g) {
      std::ifstream in(report_path(g));
      reports.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    CANB_REQUIRE(status == 0, "a forked mesh group failed (status " + std::to_string(status) + ")");
    return reports;
  }

 private:
  std::string report_path(int g) const { return dir_ + "/report-g" + std::to_string(g); }

  static void close_fd(int& fd, bool keep) {
    if (keep || fd < 0) return;
    ::close(fd);
    fd = -1;
  }
  void close_tokens() {
    for (auto& fds : tokens_)
      for (int& fd : fds) close_fd(fd, false);
  }

  std::string dir_;
  std::vector<std::array<int, 2>> tokens_;
  std::unique_ptr<canb::vmpi::ProcessGroup> pg_;
  std::shared_ptr<canb::vmpi::SocketTransport> transport_;
};

}  // namespace perfbench
