#include "host.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "client/client.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/loader.h"
#include "net/remote_driver.h"
#include "net/server.h"
#include "shard/shard_router.h"
#include "storage/storage.h"

namespace spbench {

using jackpine::Result;
using jackpine::Status;
using jackpine::StrFormat;

namespace {

// Sharded servers listen on fixed ports. The shard router names each shard
// on its consistent-hash ring by "host:port", so with ephemeral ports every
// run would split the dataset between the shards differently, and the split
// sets how evenly the two servers share the work.
constexpr uint16_t kShardBasePort = 24371;

Status Serve(Workload workload, const std::string& dir) {
  const int num_servers = ServersFor(workload);
  jackpine::Stopwatch watch;
  const jackpine::tigergen::TigerDataset dataset =
      jackpine::tigergen::GenerateTiger(DatasetOptions(kScale));
  const double generate_s = watch.ElapsedSeconds();

  // Durability is attached between Server::Create and StartServing, as in
  // `pinedb serve --data-dir`: the result cache's invalidation hook must
  // wrap the storage observer, and StartServing is where it attaches.
  std::vector<std::unique_ptr<jackpine::net::Server>> servers;
  std::vector<std::unique_ptr<jackpine::storage::StorageManager>> stores;
  for (int i = 0; i < num_servers; ++i) {
    jackpine::net::ServerOptions options;
    options.sut = "pine-rtree";
    if (num_servers > 1) options.port = static_cast<uint16_t>(kShardBasePort + i);
    JACKPINE_ASSIGN_OR_RETURN(std::unique_ptr<jackpine::net::Server> server,
                              jackpine::net::Server::Create(options));
    jackpine::storage::StorageOptions store_options;
    store_options.dir = StrFormat("%s/shard%d", dir.c_str(), i);
    store_options.group_commit_window_s = kGroupCommitWindowS;
    store_options.checkpoint_interval_s = kCheckpointIntervalS;
    std::filesystem::create_directories(store_options.dir);
    JACKPINE_ASSIGN_OR_RETURN(
        std::unique_ptr<jackpine::storage::StorageManager> store,
        jackpine::storage::StorageManager::Open(
            store_options, &server->connection().database()));
    servers.push_back(std::move(server));
    stores.push_back(std::move(store));
  }

  jackpine::core::LoadTiming load;
  if (servers.size() == 1) {
    // The engine's bulk path (below the WAL seam), then a checkpoint makes
    // the dataset durable — what `pinedb serve --preload --data-dir` does.
    JACKPINE_ASSIGN_OR_RETURN(
        load, jackpine::core::LoadDataset(dataset, &servers[0]->connection()));
    servers[0]->StartServing();
  } else {
    // Sharded: rows reach their shard as INSERTs routed by the router, so
    // every batch pays a WAL append and its group-commit fsync.
    std::vector<std::string> slots;
    for (auto& server : servers) {
      server->StartServing();
      slots.push_back(StrFormat("127.0.0.1:%u", unsigned{server->port()}));
    }
    JACKPINE_ASSIGN_OR_RETURN(
        jackpine::client::Connection router,
        jackpine::client::Connection::Open(StrFormat(
            "jackpine:shard(%s)/pine-rtree", jackpine::Join(slots, ",").c_str())));
    JACKPINE_ASSIGN_OR_RETURN(load,
                              jackpine::core::LoadDataset(dataset, &router));
  }
  for (auto& store : stores) JACKPINE_RETURN_IF_ERROR(store->Checkpoint());

  std::string ports;
  for (auto& server : servers) {
    ports += StrFormat("%s%u", ports.empty() ? "" : ",", unsigned{server->port()});
  }
  std::printf("READY %s %.9f %.9f %.9f\n", ports.c_str(), generate_s,
              load.create_s + load.insert_s, load.index_s);
  std::fflush(stdout);

  // Serve until the parent closes our stdin (a graceful stop) or kills us.
  char buf[64];
  while (std::fread(buf, 1, sizeof(buf), stdin) > 0) {
  }
  for (auto& server : servers) server->Shutdown();
  return Status::Ok();
}

}  // namespace

int HostMain(int argc, char** argv) {
  std::string workload_name;
  std::string dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--workload")) workload_name = argv[++i];
    else if (!std::strcmp(argv[i], "--dir")) dir = argv[++i];
  }
  Result<Workload> workload = ParseWorkload(workload_name);
  if (!workload.ok() || dir.empty()) {
    std::fprintf(stderr, "spbench host: bad arguments\n");
    return 2;
  }
  jackpine::net::RegisterRemoteDriver();
  jackpine::shard::RegisterShardDriver();
  const Status served = Serve(*workload, dir);
  if (!served.ok()) {
    std::fprintf(stderr, "spbench host: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}

Result<HostProcess> HostProcess::Spawn(const std::string& self_exe,
                                       Workload workload,
                                       const std::string& data_dir,
                                       double timeout_s) {
  int in[2];
  int out[2];
  if (pipe(in) != 0 || pipe(out) != 0) {
    return Status::Internal(StrFormat("pipe: %s", std::strerror(errno)));
  }
  // argv is built before fork: the child only dups and execs.
  std::vector<std::string> args = {self_exe, "--host", "--workload",
                                   WorkloadName(workload), "--dir", data_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return Status::Internal(StrFormat("fork: %s", std::strerror(errno)));
  if (pid == 0) {
    // The host must not outlive the load generator.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(in[0], STDIN_FILENO);
    dup2(out[1], STDOUT_FILENO);
    close(in[0]);
    close(in[1]);
    close(out[0]);
    close(out[1]);
    execv(self_exe.c_str(), argv.data());
    _exit(127);
  }
  close(in[0]);
  close(out[1]);
  HostProcess host;
  host.pid_ = pid;
  host.stdin_fd_ = in[1];
  host.stdout_fd_ = out[0];
  fcntl(host.stdin_fd_, F_SETFD, FD_CLOEXEC);
  fcntl(host.stdout_fd_, F_SETFD, FD_CLOEXEC);

  // Read the READY line.
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::DeadlineExceeded("host did not become ready in time");
    }
    pollfd pfd{host.stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = read(host.stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return Status::Internal("host exited before it was ready");
    line.append(buf, static_cast<size_t>(n));
  }
  std::istringstream in_line(line);
  std::string tag;
  std::string ports;
  in_line >> tag >> ports >> host.ready_.generate_s >> host.ready_.load_s >>
      host.ready_.index_s;
  if (tag != "READY" || !in_line) {
    return Status::Internal(StrFormat("host said '%s'", line.c_str()));
  }
  for (const std::string& p : jackpine::Split(ports, ',')) {
    host.ready_.ports.push_back(static_cast<uint16_t>(std::atoi(p.c_str())));
  }
  return host;
}

HostProcess::HostProcess(HostProcess&& other) noexcept { *this = std::move(other); }

HostProcess& HostProcess::operator=(HostProcess&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = std::exchange(other.pid_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    ready_ = other.ready_;
  }
  return *this;
}

HostProcess::~HostProcess() { Kill(); }

double HostProcess::PeakRssMb() const {
  std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

Status HostProcess::Stop() {
  if (pid_ < 0) return Status::Ok();
  close(stdin_fd_);
  stdin_fd_ = -1;
  for (int i = 0; i < 3000; ++i) {
    int wstatus = 0;
    const pid_t r = waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      Reap();
      if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
        return Status::Internal("host exited with an error");
      }
      return Status::Ok();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Kill();
  return Status::DeadlineExceeded("host did not stop; killed");
}

void HostProcess::Kill() {
  if (pid_ >= 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  Reap();
}

void HostProcess::Reap() {
  if (stdin_fd_ >= 0) close(stdin_fd_);
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdin_fd_ = -1;
  stdout_fd_ = -1;
}

}  // namespace spbench
