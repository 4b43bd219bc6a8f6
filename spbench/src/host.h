// The server host: a child process that generates the dataset, loads it
// into durable pinedb servers and serves them over tcp://, so the load
// generator's own memory and CPU stay out of the servers' numbers.

#ifndef SPBENCH_HOST_H_
#define SPBENCH_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace spbench {

// Durability settings of every hosted server: what `pinedb serve
// --data-dir` runs with (1 ms group commit, a checkpoint every 60 s or
// after 64 MiB of WAL, StorageOptions' default).
inline constexpr double kGroupCommitWindowS = 0.001;
inline constexpr double kCheckpointIntervalS = 60.0;

// Entry point of the child role (`spbench --host ...`).
int HostMain(int argc, char** argv);

// Parent-side handle of one host process.
class HostProcess {
 public:
  struct Ready {
    std::vector<uint16_t> ports;
    double generate_s = 0.0;
    double load_s = 0.0;
    double index_s = 0.0;
  };

  // Spawns `self_exe --host ...` and waits for its READY line.
  static jackpine::Result<HostProcess> Spawn(const std::string& self_exe,
                                             Workload workload,
                                             const std::string& data_dir,
                                             double timeout_s);
  HostProcess(HostProcess&& other) noexcept;
  HostProcess& operator=(HostProcess&& other) noexcept;
  HostProcess(const HostProcess&) = delete;
  HostProcess& operator=(const HostProcess&) = delete;
  ~HostProcess();  // kills and reaps a host still running

  const Ready& ready() const { return ready_; }
  pid_t pid() const { return pid_; }
  // Peak resident set of the host process (VmHWM), in MiB.
  double PeakRssMb() const;
  // Graceful stop: closes the host's stdin and waits for it to exit.
  jackpine::Status Stop();
  // Crash stop: SIGKILL, then reap. Acknowledged writes must survive it.
  void Kill();

 private:
  HostProcess() = default;
  void Reap();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  Ready ready_;
};

}  // namespace spbench

#endif  // SPBENCH_HOST_H_
