// The socket client, itdb_serve process control, and /proc sampling.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench.h"

extern char** environ;

namespace perfbench {

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

bool Client::Connect(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  if (fd_ >= 0) close(fd_);
  fd_ = fd;
  decoder_ = itdb::server::ResponseDecoder();
  return true;
}

bool Client::Call(const std::string& statement,
                  itdb::server::ResponseFrame* frame) {
  if (fd_ < 0) return false;
  const std::string line = statement + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = send(fd_, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  char buf[65536];
  while (true) {
    itdb::Result<std::optional<itdb::server::ResponseFrame>> next =
        decoder_.Next();
    if (!next.ok()) return false;
    if (next.value().has_value()) {
      *frame = std::move(*next.value());
      return true;
    }
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    decoder_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

ServerProcess::~ServerProcess() {
  if (pid <= 0) return;
  kill(pid, SIGTERM);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

std::unique_ptr<ServerProcess> StartServer(
    const std::string& serve, const std::vector<std::string>& args,
    const std::string& socket_path, const std::string& log_path) {
  std::vector<std::string> argv_s = {serve};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ITDB_THREADS=", 13) != 0) env_s.push_back(*e);
  }
  env_s.push_back("ITDB_THREADS=2");
  std::vector<char*> envp;
  for (std::string& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  auto server = std::make_unique<ServerProcess>();
  const Clock::time_point start = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, serve.c_str(), &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    std::cerr << "spawn " << serve << ": " << std::strerror(rc) << "\n";
    return nullptr;
  }
  server->pid = pid;
  Client client;
  while (!client.Connect(socket_path)) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      server->pid = -1;  // Reaped.
      std::cerr << "itdb_serve exited during start-up (see " << log_path
                << ")\n";
      return nullptr;
    }
    if (Clock::now() - start > std::chrono::seconds(60)) {
      std::cerr << "itdb_serve did not listen within 60 s\n";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  itdb::server::ResponseFrame frame;
  if (!client.Call("status", &frame) ||
      frame.status != itdb::server::ResponseStatus::kOk) {
    std::cerr << "itdb_serve did not answer status\n";
    return nullptr;
  }
  server->setup_s = Seconds(Clock::now() - start);
  return server;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The value after "<key>:" in a /proc status file, 0 if absent.
std::int64_t StatusField(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoll(text.c_str() + at + key.size() + 2, nullptr, 10);
}

}  // namespace

ProcSample SampleProcess(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  s.hwm_mb =
      static_cast<double>(StatusField("\n" + ReadFile(dir + "/status"),
                                      "VmHWM")) /
      1024.0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    const std::string path = task.path().string();
    // schedstat: run time (ns), wait time (ns), timeslices.
    s.cpu_s += std::strtod(ReadFile(path + "/schedstat").c_str(), nullptr) /
               1e9;
    const std::string text = "\n" + ReadFile(path + "/status");
    s.voluntary_cs += StatusField(text, "voluntary_ctxt_switches");
    s.involuntary_cs += StatusField(text, "nonvoluntary_ctxt_switches");
  }
  return s;
}

HostSample SampleHost() {
  HostSample h;
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string cpu;
  stat >> cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  std::int64_t v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    if (i == 7) h.steal_ticks = v;
  }
  std::istringstream load(ReadFile("/proc/loadavg"));
  load >> h.loadavg;
  return h;
}

std::map<std::string, std::int64_t> ParseMetrics(const std::string& text) {
  std::map<std::string, std::int64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string value;
    if (!(fields >> name >> value)) continue;
    if (value.rfind("count=", 0) == 0) {
      out[name + ".count"] = std::strtoll(value.c_str() + 6, nullptr, 10);
      std::string sum;
      if (fields >> sum && sum.rfind("sum=", 0) == 0) {
        out[name + ".sum"] = std::strtoll(sum.c_str() + 4, nullptr, 10);
      }
    } else {
      out[name] = std::strtoll(value.c_str(), nullptr, 10);
    }
  }
  return out;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::remove_all(to, ec);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  return !ec;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(std::ceil(q * n), 1.0, n);
  return v[static_cast<std::size_t>(rank) - 1];
}

}  // namespace perfbench
