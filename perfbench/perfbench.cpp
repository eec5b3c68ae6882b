// The repository benchmark driver: three phases in one process, each
// through the library's public APIs, every output checked.
//
//   kvd-mixed    KvService + Server over loopback, configured like
//                `crpm_kvd serve --archive-tier`; one open-loop generator
//                thread over at most nproc connections sends a seeded
//                90% GET / 8% PUT / 2% durable-PUT stream at fixed rates.
//   ckpt-update  the Fig. 7 libcrpm-Default unordered_map (the same
//                geometry make_kv builds) under balanced updates/gets with
//                a synchronous checkpoint() every 2000 operations and the
//                realistic NVM cost model.
//   recover      restarts of a kvd data directory whose container file was
//                deleted: one blocking archive restore, one lazy restore.
//
// --workload picks the key distribution all three phases draw from:
// `zipf` (scrambled zipfian, theta 0.99) or `uniform`. With --trace 1 the
// driver times the calls into each layer, diffs the counters each layer
// exports, and reports per-layer numbers instead of end-to-end ones.
//
// Output: human-readable lines, then one JSON object as the last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit,
//    samples}}}
// Exit code 0 only when every correctness check passed.
//
// Usage: perfbench --workload zipf|uniform --seed N --seconds S
//                  [--trace 0|1] [--trace-out FILE]
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/crpm_policy.h"
#include "containers/phashmap.h"
#include "core/container.h"
#include "net/kv_service.h"
#include "net/server.h"
#include "net/wire.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "stats.h"
#include "util/rng.h"
#include "util/zipfian.h"

namespace fs = std::filesystem;
using namespace crpm;
using namespace crpm::net;
using perfbench::Percentile;

namespace {

// --- fixed design constants (recorded in design.json) ----------------------

constexpr uint64_t kKvdKeys = 1000 * 1000;
constexpr double kMissUs = 1e12;  // latency charged to a missed request
constexpr double kGetLimitUs = 1000.0;         // kvd GET p99 latency limit
// Reference rate for the latency figures, measured in windows of
// kRefWindowS (each window holds > 1000 durable PUTs, so its p99 has ten
// samples beyond it); the step takes kRefShare of --seconds.
constexpr double kRefRate = 40000;
constexpr double kRefWindowS = 1.5;
constexpr double kRefShare = 0.3;
// Fixed rate ladder, ops/s, x1.25 apart; each step runs kStepWindows
// windows of kStepWindowS and is judged on the median window GET p99.
constexpr double kLadder[] = {25000, 31250, 39000, 49000, 61000,
                              76000, 95000, 119000, 149000, 186000};
constexpr double kStepWindowS = 0.25;
constexpr double kStepWindows = 3;
constexpr uint64_t kCkptKeys = 256 * 1024;
constexpr double kCkptShare = 0.25;     // of --seconds
constexpr double kRecoverShare = 0.4;   // of --seconds
constexpr uint64_t kOpsPerEpoch = 2000;        // ckpt-update epoch length
constexpr uint64_t kCountEpochs = 200;         // epochs the counts cover
constexpr uint64_t kRecoverKeys = 200 * 1000;
constexpr uint64_t kRecoverEpochs = 40;        // update epochs after load
constexpr uint64_t kRecoverPutsPerEpoch = 5000;
// Each phase is set up this many times; setup_s sums the per-phase medians.
constexpr int kSetupRepeats = 3;
constexpr uint64_t kUserBytesPerKvPut = 8 + 20;  // key + self-checking value
constexpr uint64_t kUserBytesPerMapPut = 16;     // u64 key + u64 value

using Clock = std::chrono::steady_clock;

uint64_t now_ns() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

double secs_since(uint64_t t0) { return double(now_ns() - t0) / 1e9; }

// --- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (a->workload == "zipf" || a->workload == "uniform") &&
         a->seconds > 0;
}

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void add(const std::string& name, double value, const char* unit,
           uint64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
    std::printf("  %-36s %14.4f %-6s", name.c_str(), value, unit);
    if (samples != 0) std::printf(" (n=%" PRIu64 ")", samples);
    std::printf("\n");
  }
  // Percentile of microsecond samples, named stem_pNN_us after the
  // percentile actually reported (see stats.h for the ten-beyond rule).
  void pct_us(const std::string& stem, std::vector<double> v, int want) {
    Percentile p = perfbench::percentile(v, want);
    if (!p.ok) {
      std::printf("  %s: too few samples (%zu) for any percentile\n",
                  stem.c_str(), v.size());
      return;
    }
    add(perfbench::pct_name(stem, p.pct, "_us"), p.value, "us", p.samples);
  }
  // Median over `window_s` windows of percentile `want` of each window,
  // named after the percentile reported (see stats.h window_median).
  void window_us(const std::string& stem,
                 const std::vector<perfbench::Timed>& v, double window_s,
                 int want) {
    perfbench::Windowed w = perfbench::window_median(v, window_s, want);
    if (!w.ok) {
      std::printf("  %s: too few samples (%zu) for any percentile\n",
                  stem.c_str(), v.size());
      return;
    }
    add(perfbench::pct_name(stem, w.pct, "_us"), w.value, "us", w.samples);
    std::printf("  %38s median of %" PRIu64 " windows of %.2f s\n", "",
                w.windows, window_s);
  }
  // Records a failed correctness check.
  void fail(const char* fmt, ...) {
    ++failed;
    if (!correct && failed > 20) return;  // keep the log bounded
    correct = false;
    va_list ap;
    va_start(ap, fmt);
    std::printf("  CHECK FAILED: ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
  }
  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", "
                  "\"samples\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("}}\n");
  }
};

// --- spans -------------------------------------------------------------------

// In-memory span log of the traced run, written out when the run ends. A
// span has a name, a start, an end, its parent (index, -1 for a root) and
// the id of the request it belongs to.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t req;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }
  int64_t add(const char* name, uint64_t start, uint64_t end,
              int64_t parent = -1, uint64_t req = 0) {
    if (!on_) return -1;
    spans_.push_back({name, start, end, parent, req});
    return int64_t(spans_.size()) - 1;
  }
  // Self time of span i: its duration minus what its children cover.
  std::vector<double> self_us(const char* name) const {
    std::vector<uint64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[size_t(s.parent)] += s.end_ns - s.start_ns;
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) != 0) continue;
      uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
      out.push_back(double(d - std::min(d, child[i])) / 1e3);
    }
    return out;
  }
  // Writes the first kMaxWritten spans as JSON lines (times relative to
  // the earliest span); every span still feeds the metrics.
  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    const size_t n = std::min(spans_.size(), kMaxWritten);
    std::printf("trace: %zu spans, %zu written to %s\n", spans_.size(), n,
                path.c_str());
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"parent\":%" PRId64
                   ",\"req\":%" PRIu64 "}\n",
                   i, s.name, s.start_ns - t0, s.end_ns - t0, s.parent,
                   s.req);
    }
    std::fclose(f);
  }

 private:
  static constexpr size_t kMaxWritten = 200000;
  bool on_;
  std::vector<Span> spans_;
};

// --- run directory -----------------------------------------------------------

// A fresh unique directory under TMPDIR, removed on every exit path that
// unwinds.
class RunDir {
 public:
  RunDir() {
    const char* t = std::getenv("TMPDIR");
    std::string tmpl = std::string(t != nullptr && *t != 0 ? t : "/tmp") +
                       "/crpm_perfbench.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::perror("mkdtemp");
      std::exit(2);
    }
    path_ = buf.data();
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  std::string sub(const std::string& name) const {
    std::string p = path_ + "/" + name;
    fs::create_directories(p);
    return p;
  }

 private:
  std::string path_;
};

// --- key distribution --------------------------------------------------------

class KeyGen {
 public:
  KeyGen(bool zipf, uint64_t n, uint64_t seed)
      : zipf_(zipf), n_(n), z_(n, 0.99, seed) {}
  uint64_t next(Xoshiro256& rng) {
    return zipf_ ? z_.next(rng) : rng.next_below(n_);
  }

 private:
  bool zipf_;
  uint64_t n_;
  ScrambledZipfianGenerator z_;
};

uint32_t ncpu() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1u : uint32_t(n);
}

struct CpuUsage {
  double cpu_s = 0;
  uint64_t ctx = 0;
};

CpuUsage usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  CpuUsage u;
  u.cpu_s = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.ctx = uint64_t(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// ============================================================================
// kvd-mixed
// ============================================================================

enum OpKind : uint8_t { kOpGet = 0, kOpPut = 1, kOpDurablePut = 2 };

struct Op {
  uint64_t key;
  OpKind kind;
};

std::vector<Op> make_stream(uint64_t n, KeyGen& keys, Xoshiro256& rng) {
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    op.key = keys.next(rng);
    uint64_t r = rng.next_below(100);
    op.kind = r < 90 ? kOpGet : r < 98 ? kOpPut : kOpDurablePut;
  }
  return ops;
}

struct StepResult {
  double seconds = 0;
  uint64_t issued = 0;
  uint64_t failed = 0;
  uint64_t backlog_end = 0;
  bool aborted = false;
  // Latency from due time, stamped with the due time; a GET that failed
  // or was never answered counts as infinitely late.
  std::vector<perfbench::Timed> get_us, put_us, dput_us;
  std::vector<double> late_us;                   // send time - due time
  std::vector<double> rtt_us;                    // per op index (-1: none)
};

// One open-loop generator thread over `conns` non-blocking connections.
// Requests are due at fixed intervals from the step start and are
// round-robined over the connections (pipelined; responses match by seq).
class Generator {
 public:
  Generator(uint16_t port, uint32_t conns, KvService& svc,
            std::vector<uint64_t>& newest, Report& rep)
      : port_(port), svc_(svc), newest_(newest), rep_(rep) {
    conns_.resize(conns);
    for (auto& c : conns_) connect_conn(c);
  }
  ~Generator() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  uint64_t stamps_issued() const { return stamp_; }

  StepResult run(const std::vector<Op>& ops, double rate, SpanLog& log,
                 uint64_t req_base);

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::vector<uint8_t> in;
    std::unordered_map<uint32_t, uint64_t> inflight;  // seq -> op index
    uint32_t seq = 0;
  };

  void connect_conn(Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c = Conn{};
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect: ") +
                               std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  }

  // Fails every request in flight on `c` and reconnects: a transport
  // error never silently ends the step.
  void reset_conn(Conn& c, StepResult& r, const char* why) {
    for (const auto& entry : c.inflight) fail_op(r, entry.second, why);
    connect_conn(c);
  }

  void fail_op(StepResult& r, uint64_t idx, const char* why) {
    ++r.failed;
    if ((*ops_)[idx].kind == kOpGet) {
      r.get_us.push_back({due_s(idx), kMissUs});
    }
    rep_.fail("kvd op %" PRIu64 " (key %" PRIu64 "): %s", idx,
              (*ops_)[idx].key, why);
    --outstanding_;
  }

  bool flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      ssize_t n = ::write(c.fd, c.out.data() + c.out_off,
                          c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += size_t(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  }

  bool read_conn(Conn& c, StepResult& r, SpanLog& log, uint64_t req_base);
  void on_response(StepResult& r, uint64_t idx, const MsgHeader& h,
                   const uint8_t* body, uint64_t t, SpanLog& log,
                   uint64_t req_base);

  uint16_t port_;
  KvService& svc_;
  std::vector<uint64_t>& newest_;
  Report& rep_;
  std::vector<Conn> conns_;
  uint64_t stamp_ = 0;

  double due_s(uint64_t idx) const {
    return double(idx) * interval_ns_ / 1e9;
  }

  // Per-step state.
  const std::vector<Op>* ops_ = nullptr;
  double interval_ns_ = 0;
  std::vector<uint64_t> due_, sent_;
  int64_t outstanding_ = 0;
};

void Generator::on_response(StepResult& r, uint64_t idx, const MsgHeader& h,
                            const uint8_t* body, uint64_t t, SpanLog& log,
                            uint64_t req_base) {
  const Op& op = (*ops_)[idx];
  bool ok = h.status == kOk;
  const char* why = "bad status";
  if (ok && op.kind == kOpGet) {
    KvVal v;
    v.len = h.body_len;
    ok = v.len <= kMaxValueLen;
    if (ok && v.len != 0) std::memcpy(v.bytes, body, v.len);
    uint64_t stamp = 0;
    ok = ok && check_value(v, op.key, &stamp);
    why = "GET value fails check_value";
    if (ok && stamp > newest_[op.key]) {
      ok = false;
      why = "GET stamp newer than any issued for the key";
    }
  } else if (ok && op.kind == kOpPut) {
    ok = h.aux != 0;
    why = "PUT without a durability tag";
  } else if (ok && op.kind == kOpDurablePut) {
    ok = h.aux != 0 && h.aux <= svc_.committed_epoch();
    why = "durable PUT acked before committed_epoch() covered its tag";
  }
  if (!ok) {
    fail_op(r, idx, why);
    return;
  }
  --outstanding_;
  double lat = double(t - due_[idx]) / 1e3;
  (op.kind == kOpGet ? r.get_us : op.kind == kOpPut ? r.put_us : r.dput_us)
      .push_back({due_s(idx), lat});
  r.rtt_us[idx] = double(t - sent_[idx]) / 1e3;
  if (log.on()) {
    int64_t root = log.add("kvd.request", due_[idx], t, -1, req_base + idx);
    log.add("gen.late", due_[idx], sent_[idx], root, req_base + idx);
    log.add("net.roundtrip", sent_[idx], t, root, req_base + idx);
  }
}

bool Generator::read_conn(Conn& c, StepResult& r, SpanLog& log,
                          uint64_t req_base) {
  uint8_t buf[65536];
  for (;;) {
    ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // EOF or error
  }
  uint64_t t = now_ns();
  size_t off = 0;
  while (c.in.size() - off >= sizeof(MsgHeader)) {
    MsgHeader h;
    if (!decode_header(c.in.data() + off, &h)) return false;
    if (c.in.size() - off < sizeof(MsgHeader) + h.body_len) break;
    const uint8_t* body = c.in.data() + off + sizeof(MsgHeader);
    if (!body_ok(h, body)) return false;
    auto it = c.inflight.find(h.seq);
    if (it == c.inflight.end()) return false;
    uint64_t idx = it->second;
    c.inflight.erase(it);
    on_response(r, idx, h, body, t, log, req_base);
    off += sizeof(MsgHeader) + h.body_len;
  }
  c.in.erase(c.in.begin(), c.in.begin() + long(off));
  return true;
}

StepResult Generator::run(const std::vector<Op>& ops, double rate,
                          SpanLog& log, uint64_t req_base) {
  StepResult r;
  r.rtt_us.assign(ops.size(), -1.0);
  ops_ = &ops;
  due_.assign(ops.size(), 0);
  sent_.assign(ops.size(), 0);
  outstanding_ = 0;

  const double interval_ns = 1e9 / rate;
  interval_ns_ = interval_ns;
  const uint64_t spin_ns = 100 * 1000;  // wake this early, then spin
  // A step whose backlog exceeds 100 ms of offered load has failed the
  // limit by two orders of magnitude: stop issuing and drain.
  const int64_t abort_backlog = int64_t(rate * 0.1) + 256;
  const uint64_t t0 = now_ns() + 1000 * 1000;
  const size_t nconn = conns_.size();
  std::vector<pollfd> pfds(nconn);
  uint64_t next = 0;
  uint64_t drain_deadline = 0;

  for (;;) {
    uint64_t now = now_ns();
    if (!r.aborted && next < ops.size()) {
      // Encode every request now due, then flush each connection once.
      std::vector<uint64_t> batch;
      while (next < ops.size()) {
        uint64_t due = t0 + uint64_t(double(next) * interval_ns);
        if (due > now) break;
        const Op& op = ops[next];
        Conn& c = conns_[next % nconn];
        MsgHeader h;
        h.seq = ++c.seq;
        h.key = op.key;
        if (op.kind == kOpGet) {
          h.opcode = kGet;
          encode_into(c.out, h, nullptr, 0);
        } else {
          h.opcode = kPut;
          if (op.kind == kOpDurablePut) h.flags = kFlagDurable;
          newest_[op.key] = ++stamp_;
          KvVal v = make_value(op.key, stamp_);
          encode_into(c.out, h, v.bytes, v.len);
        }
        c.inflight[h.seq] = next;
        due_[next] = due;
        batch.push_back(next);
        ++outstanding_;
        ++next;
      }
      for (auto& c : conns_) {
        if (c.out_off < c.out.size() && !flush(c)) {
          reset_conn(c, r, "transport error on send");
        }
      }
      uint64_t sent = now_ns();
      for (uint64_t i : batch) {
        sent_[i] = sent;
        r.late_us.push_back(double(sent - due_[i]) / 1e3);
      }
      if (outstanding_ > abort_backlog) r.aborted = true;
    }
    bool issuing = !r.aborted && next < ops.size();
    if (!issuing) {
      if (drain_deadline == 0) {
        r.seconds = double(now_ns() - t0) / 1e9;
        r.backlog_end = uint64_t(std::max<int64_t>(outstanding_, 0));
        drain_deadline = now_ns() + 10ull * 1000 * 1000 * 1000;
      }
      if (outstanding_ <= 0) break;
      if (now_ns() > drain_deadline) {
        for (auto& c : conns_) reset_conn(c, r, "no response within 10 s");
        break;
      }
    }

    int64_t timeout_ns = 1000 * 1000;
    if (issuing) {
      uint64_t due = t0 + uint64_t(double(next) * interval_ns);
      uint64_t t = now_ns();
      timeout_ns = due > t + spin_ns ? int64_t(due - t - spin_ns) : 0;
    }
    for (size_t i = 0; i < nconn; ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = short(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    timespec ts{timeout_ns / 1000000000, timeout_ns % 1000000000};
    int n = ::ppoll(pfds.data(), nconn, &ts, nullptr);
    if (n <= 0) continue;
    for (size_t i = 0; i < nconn; ++i) {
      Conn& c = conns_[i];
      if (pfds[i].revents & POLLOUT) {
        if (!flush(c)) {
          reset_conn(c, r, "transport error on send");
          continue;
        }
      }
      if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!read_conn(c, r, log, req_base)) {
          reset_conn(c, r, "transport or protocol error on receive");
        }
      }
    }
  }
  r.issued = next;
  // Requests never issued because the step aborted count as misses for
  // the latency limit, not as attempted operations.
  for (uint64_t i = next; i < ops.size(); ++i) {
    if (ops[i].kind == kOpGet) r.get_us.push_back({due_s(i), kMissUs});
  }
  return r;
}

std::vector<double> values(const std::vector<perfbench::Timed>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& x : v) out.push_back(x.v);
  return out;
}

struct KvdEnv {
  std::unique_ptr<KvService> svc;
  std::vector<uint64_t> newest;  // newest stamp issued per key
};

KvService::Config kvd_config(const std::string& dir) {
  // Same service configuration as `crpm_kvd serve --archive-tier`.
  KvService::Config sc;
  sc.dir = dir;
  sc.capacity_bytes = std::max<uint64_t>(256ull << 20, kKvdKeys * 192);
  sc.buckets = 65536;
  sc.interval_ms = 8.0;
  sc.async_workers = 1;
  sc.max_inflight_epochs = 1;
  sc.commit_shards = 1;
  sc.archive = true;
  sc.archive_tier = true;
  return sc;
}

// Builds the preloaded service; returns the set-up seconds.
double kvd_setup(const std::string& dir, KvdEnv* env) {
  env->svc.reset();
  fs::remove_all(dir);
  uint64_t t0 = now_ns();
  fs::create_directories(dir);
  env->svc = std::make_unique<KvService>(kvd_config(dir));
  for (uint64_t k = 0; k < kKvdKeys; ++k) env->svc->put(k, make_value(k, 0));
  env->svc->flush();
  // Let the bulk-load frame reach the archive before serving starts.
  if (auto* aw = env->svc->store().archive_writer()) aw->drain();
  env->newest.assign(kKvdKeys, 0);
  return secs_since(t0);
}

struct KvdCounters {
  CrpmStatsSnapshot crpm;
  PersistStatsSnapshot nvm;
  snapshot::ArchiveWriterStats arch;
  uint64_t epoch = 0;
};

KvdCounters kvd_counters(KvService& svc) {
  KvdCounters c;
  Container* ctr = svc.store().container();
  c.crpm = ctr->stats().snapshot();
  c.nvm = ctr->device()->stats().snapshot();
  if (auto* aw = svc.store().archive_writer()) c.arch = aw->writer_stats();
  c.epoch = svc.committed_epoch();
  return c;
}

// Direct KvService replay of a step's op stream (traced run only): per-op
// call time, and for every PUT the wait from its tag to the commit that
// covers it.
struct Replay {
  std::vector<double> call_us;  // per op index
  std::vector<double> get_us, put_us, commit_wait_us;
};

Replay kvd_replay(KvService& svc, const std::vector<Op>& ops,
                  std::vector<uint64_t>& newest, uint64_t& stamp,
                  SpanLog& log, uint64_t req_base, Report& rep) {
  struct Commit {
    uint64_t epoch, t;
  };
  // Shared with the callback: a commit notification already copied out by
  // the pipeline may still run after the callback is uninstalled.
  struct CommitLog {
    std::mutex mu;
    std::vector<Commit> commits;
  };
  auto clog = std::make_shared<CommitLog>();
  svc.set_commit_callback([clog](uint64_t e) {
    uint64_t t = now_ns();
    std::lock_guard<std::mutex> lk(clog->mu);
    clog->commits.push_back({e, t});
  });
  struct PutTag {
    uint64_t tag, t, idx;
  };
  std::vector<PutTag> tags;
  Replay r;
  r.call_us.assign(ops.size(), 0);
  for (uint64_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    uint64_t t0 = now_ns();
    if (op.kind == kOpGet) {
      KvVal v;
      uint64_t s = 0;
      bool ok = svc.get(op.key, &v) && check_value(v, op.key, &s) &&
                s <= newest[op.key];
      uint64_t t1 = now_ns();
      if (!ok) rep.fail("direct GET of key %" PRIu64 " failed", op.key);
      r.call_us[i] = double(t1 - t0) / 1e3;
      r.get_us.push_back(r.call_us[i]);
      log.add("svc.get", t0, t1, -1, req_base + i);
    } else {
      newest[op.key] = ++stamp;
      uint64_t tag = svc.put(op.key, make_value(op.key, stamp));
      uint64_t t1 = now_ns();
      if (op.kind == kOpDurablePut) svc.kick();
      r.call_us[i] = double(t1 - t0) / 1e3;
      r.put_us.push_back(r.call_us[i]);
      log.add("svc.put", t0, t1, -1, req_base + i);
      tags.push_back({tag, t1, i});
    }
  }
  svc.flush();
  svc.set_commit_callback(nullptr);
  std::vector<Commit> commits;
  {
    std::lock_guard<std::mutex> lk(clog->mu);
    commits = clog->commits;
  }
  std::sort(commits.begin(), commits.end(),
            [](const Commit& a, const Commit& b) { return a.epoch < b.epoch; });
  for (const PutTag& p : tags) {
    auto it = std::lower_bound(
        commits.begin(), commits.end(), p.tag,
        [](const Commit& c, uint64_t e) { return c.epoch < e; });
    if (it == commits.end()) {
      if (svc.committed_epoch() < p.tag) {
        rep.fail("tag %" PRIu64 " never committed", p.tag);
      }
      continue;
    }
    uint64_t t = std::max(it->t, p.t);
    r.commit_wait_us.push_back(double(t - p.t) / 1e3);
    log.add("svc.commit_wait", p.t, t, -1, req_base + p.idx);
  }
  return r;
}

void run_kvd(const Args& a, const RunDir& rd, Report& rep, SpanLog& log,
             std::vector<double>* setup_s) {
  std::printf("== kvd-mixed: %" PRIu64 " keys, %s keys, 90/8/2 "
              "GET/PUT/durable-PUT ==\n",
              kKvdKeys, a.workload.c_str());
  const std::string dir = rd.sub("kvd");
  KvdEnv env;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(kvd_setup(dir, &env));
  }
  setup_s->push_back(perfbench::median(setups));
  KvService& svc = *env.svc;

  ServerConfig nc;
  nc.workers = 4;
  Server server(svc, nc);
  std::string err;
  if (!server.start(&err)) {
    rep.fail("server start: %s", err.c_str());
    return;
  }
  const uint32_t conns = std::min<uint32_t>(ncpu(), 4);
  Generator gen(server.port(), conns, svc, env.newest, rep);

  Xoshiro256 rng(a.seed * 0x9e3779b97f4a7c15ULL + 11);
  KeyGen keys(a.workload == "zipf", kKvdKeys, a.seed);
  const uint64_t ref_windows = std::max<uint64_t>(
      3, uint64_t(a.seconds * kRefShare / kRefWindowS + 0.5));
  auto ref_ops = make_stream(
      uint64_t(kRefRate * kRefWindowS * double(ref_windows)), keys, rng);
  SpanLog off(false);

  // Warm the connections and the server threads at the reference rate.
  {
    auto warm = make_stream(uint64_t(kRefRate * 0.5), keys, rng);
    StepResult w = gen.run(warm, kRefRate, off, 0);
    rep.attempted += w.issued;
  }

  if (!a.trace) {
    CpuUsage p0 = usage(RUSAGE_SELF), g0 = usage(RUSAGE_THREAD);
    StepResult r = gen.run(ref_ops, kRefRate, off, 0);
    CpuUsage p1 = usage(RUSAGE_SELF), g1 = usage(RUSAGE_THREAD);
    rep.attempted += r.issued;
    // Server-side CPU per request: the process minus the generator thread.
    // Preemption of the VM stretches latencies but not CPU time.
    rep.add("kvd_cpu_us_per_op",
            ((p1.cpu_s - p0.cpu_s) - (g1.cpu_s - g0.cpu_s)) * 1e6 /
                double(r.issued - r.failed),
            "us", r.issued - r.failed);
    std::printf("  reference %.0f ops/s for %.2f s: %zu GET %zu PUT %zu "
                "durable PUT\n",
                kRefRate, r.seconds, r.get_us.size(), r.put_us.size(),
                r.dput_us.size());
    rep.window_us("get", r.get_us, kRefWindowS, 50);
    rep.window_us("get", r.get_us, kRefWindowS, 99);
    rep.window_us("put", r.put_us, kRefWindowS, 99);
    rep.window_us("durable_put", r.dput_us, kRefWindowS, 50);
    rep.window_us("durable_put", r.dput_us, kRefWindowS, 99);
    std::vector<double> all = values(r.get_us), late = r.late_us;
    Percentile whole = perfbench::percentile(all, 99);
    Percentile lp = perfbench::percentile(late, 99);
    std::printf("  whole-step GET p%d %.1f us (n=%" PRIu64 "); "
                "gen.late_p99_us %.2f (n=%" PRIu64 ")\n",
                whole.pct, whole.value, whole.samples, lp.value, lp.samples);

    std::vector<perfbench::LadderStep> ladder;
    for (double rate : kLadder) {
      auto ops = make_stream(uint64_t(rate * kStepWindowS * kStepWindows),
                             keys, rng);
      StepResult st = gen.run(ops, rate, off, 0);
      rep.attempted += st.issued;
      perfbench::Windowed w =
          perfbench::window_median(st.get_us, kStepWindowS, 99);
      perfbench::LadderStep ls;
      ls.rate = rate;
      ls.achieved = double(st.issued - st.failed) / st.seconds;
      ls.get_p99_us = w.ok && w.pct == 99 ? w.value : kMissUs;
      ls.backlog_end = st.backlog_end;
      ladder.push_back(ls);
      std::printf("  ladder %7.0f ops/s: achieved %8.0f, GET p99 %9.1f us "
                  "(median of %" PRIu64 " windows, n=%" PRIu64 "), "
                  "backlog %" PRIu64 "%s\n",
                  rate, ls.achieved, ls.get_p99_us, w.windows, w.samples,
                  ls.backlog_end, st.aborted ? " (aborted)" : "");
      if (perfbench::ladder_max(ladder, kGetLimitUs) !=
          int(ladder.size()) - 1) {
        break;
      }
    }
    // Not a correctness failure: on a host that preempts its vCPUs for
    // milliseconds, every step can miss a 1 ms p99 limit.
    int best = perfbench::ladder_max(ladder, kGetLimitUs);
    rep.add("max_rate_ops_s", best < 0 ? 0 : ladder[size_t(best)].achieved,
            "ops/s");
  } else {
    // Untraced then traced reference step over the same op stream: the
    // difference is the tracing overhead.
    StepResult plain = gen.run(ref_ops, kRefRate, off, 0);
    rep.attempted += plain.issued;
    KvdCounters c0 = kvd_counters(svc);
    CpuUsage p0 = usage(RUSAGE_SELF), g0 = usage(RUSAGE_THREAD);
    StepResult r = gen.run(ref_ops, kRefRate, log, 0);
    CpuUsage p1 = usage(RUSAGE_SELF), g1 = usage(RUSAGE_THREAD);
    if (auto* aw = svc.store().archive_writer()) aw->drain();
    KvdCounters c1 = kvd_counters(svc);
    rep.attempted += r.issued;
    uint64_t done = r.issued - r.failed;
    std::vector<double> late = r.late_us;
    rep.pct_us("gen.late", late, 99);
    {
      double m0 = perfbench::window_median(plain.get_us, kRefWindowS, 50).value;
      double m1 = perfbench::window_median(r.get_us, kRefWindowS, 50).value;
      rep.add("trace.overhead_get_p50_pct", m0 > 0 ? (m1 / m0 - 1) * 100 : 0,
              "%");
    }
    double cpu = (p1.cpu_s - p0.cpu_s) - (g1.cpu_s - g0.cpu_s);
    double ctx = double(p1.ctx - p0.ctx) - double(g1.ctx - g0.ctx);
    rep.add("net.cpu_us_per_op", cpu * 1e6 / double(done), "us");
    rep.add("net.ctx_switches_per_op", ctx / double(done), "count");

    const uint64_t epochs = perfbench::delta(c0.epoch, c1.epoch);
    uint64_t dputs = r.dput_us.size();
    rep.add("svc.durable_puts_per_epoch", perfbench::per_epoch(dputs, epochs),
            "count", epochs);
    const CrpmStatsSnapshot d = c1.crpm - c0.crpm;
    const uint64_t caps = d.async_captures;
    rep.add("core.capture_us_per_epoch",
            perfbench::per_epoch(d.async_capture_ns, caps) / 1e3, "us", caps);
    rep.add("core.backpressure_us_per_epoch",
            perfbench::per_epoch(d.async_backpressure_ns, caps) / 1e3, "us",
            caps);
    rep.add("core.flush_crit_us_per_epoch",
            perfbench::per_epoch(d.async_flush_crit_ns, caps) / 1e3, "us",
            caps);
    rep.add("core.flush_bytes_per_epoch",
            perfbench::per_epoch(d.async_flush_bytes, caps), "B", caps);
    rep.add("core.steal_copies_per_epoch",
            perfbench::per_epoch(d.async_steal_copies, caps), "count", caps);
    rep.add("core.inflight_hwm", double(c1.crpm.async_inflight_hwm),
            "count");
    const PersistStatsSnapshot nv = c1.nvm - c0.nvm;
    rep.add("kvd.nvm.sfence_per_epoch", perfbench::per_epoch(nv.sfence, epochs),
            "count", epochs);
    rep.add("kvd.nvm.clwb_per_epoch", perfbench::per_epoch(nv.clwb, epochs),
            "count", epochs);
    rep.add("kvd.nvm.flushed_bytes_per_epoch",
            perfbench::per_epoch(nv.flushed_bytes, epochs), "B", epochs);
    rep.add("kvd.nvm.media_bytes_per_epoch",
            perfbench::per_epoch(nv.media_write_bytes, epochs), "B", epochs);
    rep.add("kvd.nvm.wbinvd_per_epoch", perfbench::per_epoch(nv.wbinvd, epochs),
            "count", epochs);
    const auto& a0 = c0.arch;
    const auto& a1 = c1.arch;
    const uint64_t ae =
        perfbench::delta(a0.epochs_appended, a1.epochs_appended);
    rep.add("archive.capture_us_per_epoch",
            perfbench::per_epoch(d.archive_capture_ns, ae) / 1e3, "us", ae);
    rep.add("archive.stall_us_per_epoch",
            perfbench::per_epoch(d.archive_stall_ns, ae) / 1e3, "us", ae);
    rep.add("archive.bytes_per_epoch",
            perfbench::per_epoch(a1.bytes_appended - a0.bytes_appended, ae),
            "B", ae);
    rep.add("archive.raw_bytes_per_epoch",
            perfbench::per_epoch(a1.raw_bytes - a0.raw_bytes, ae), "B", ae);
    rep.add("archive.batches_per_epoch",
            perfbench::per_epoch(a1.batches - a0.batches, ae), "count", ae);
    rep.add("archive.fsyncs_per_epoch",
            perfbench::per_epoch(a1.fsyncs - a0.fsyncs, ae), "count", ae);
    rep.add("archive.queue_hwm", double(a1.queue_hwm), "count");

    // Same op stream straight into KvService, server stopped (it owns the
    // commit callback while running).
    server.stop();
    uint64_t stamp = gen.stamps_issued() + 1000000000ull;
    Replay rp = kvd_replay(svc, ref_ops, env.newest, stamp, log,
                           ref_ops.size(), rep);
    rep.attempted += ref_ops.size();
    std::vector<double> self;
    for (uint64_t i = 0; i < ref_ops.size(); ++i) {
      if (ref_ops[i].kind == kOpDurablePut || r.rtt_us[i] < 0) continue;
      self.push_back(std::max(0.0, r.rtt_us[i] - rp.call_us[i]));
    }
    rep.pct_us("net.self", self, 50);
    rep.pct_us("net.self", self, 99);
    rep.pct_us("svc.get", rp.get_us, 99);
    rep.pct_us("svc.put", rp.put_us, 99);
    rep.pct_us("svc.commit_wait", rp.commit_wait_us, 50);
    rep.pct_us("svc.commit_wait", rp.commit_wait_us, 99);
  }
  server.stop();
}

// ============================================================================
// ckpt-update
// ============================================================================

using CkMap = PHashMap<uint64_t, uint64_t, CrpmPolicy>;

// The libcrpm-Default unordered_map geometry make_kv builds for `keys`
// (workload/kv.cpp data_size_for and make_kv). Built here through
// CrpmPolicy directly: KvBench hides the container whose CrpmStats,
// device PersistStats and reopen this phase needs.
CrpmOptions ckpt_options(uint64_t keys) {
  CrpmOptions opt;
  opt.segment_size = 2 * 1024 * 1024;
  opt.block_size = 256;
  opt.eager_cow_segments = 8;
  opt.wbinvd_threshold = 32 * 1024 * 1024;
  uint64_t data = keys * 48 + keys * 8;
  opt.main_region_size = (data * 5 / 4 + (1 << 20) + 4095) & ~uint64_t{4095};
  return opt;
}

struct CkEnv {
  std::unique_ptr<HeapNvmDevice> dev;
  std::unique_ptr<CrpmPolicy> policy;
  std::unique_ptr<CkMap> map;
  std::vector<uint64_t> golden;
};

double ckpt_setup(CkEnv* env) {
  env->map.reset();
  env->policy.reset();
  env->dev.reset();
  uint64_t t0 = now_ns();
  CrpmOptions opt = ckpt_options(kCkptKeys);
  env->dev = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt));
  env->dev->set_cost_model(CostModel::realistic());
  env->policy = std::make_unique<CrpmPolicy>(env->dev.get(), opt);
  env->map = std::make_unique<CkMap>(*env->policy, kCkptKeys);
  env->golden.resize(kCkptKeys);
  for (uint64_t k = 0; k < kCkptKeys; ++k) {
    env->map->insert(k, k ^ 0xBEEF);
    env->golden[k] = k ^ 0xBEEF;
  }
  env->policy->checkpoint();
  return secs_since(t0);
}

void run_ckpt(const Args& a, Report& rep, SpanLog& log,
              std::vector<double>* setup_s) {
  std::printf("== ckpt-update: %" PRIu64 " keys, %s keys, 50/50 "
              "update/get, checkpoint every %" PRIu64 " ops ==\n",
              kCkptKeys, a.workload.c_str(), kOpsPerEpoch);
  CkEnv env;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) setups.push_back(ckpt_setup(&env));
  setup_s->push_back(perfbench::median(setups));
  Container& ctr = env.policy->container();
  Xoshiro256 rng(a.seed * 0x2545F4914F6CDD1DULL + 3);
  KeyGen keys(a.workload == "zipf", kCkptKeys, a.seed + 1);
  const double budget_s = a.seconds * kCkptShare;

  uint64_t value = 1;
  uint64_t ops = 0, updates = 0, epochs = 0, mismatches = 0;
  uint64_t count_updates = 0;
  std::vector<double> ckpt_us;
  CrpmStatsSnapshot s0 = ctr.stats().snapshot(), s_count;
  PersistStatsSnapshot n0 = env.dev->stats().snapshot(), n_count;
  // Untraced epochs first (end-to-end numbers, or the overhead baseline
  // of the traced run), then, in the traced run, traced epochs. Returns
  // the throughput of the median epoch (operations plus its checkpoint),
  // which a burst of host preemption does not move.
  auto run_epochs = [&](double seconds, bool traced) {
    uint64_t t_start = now_ns();
    std::vector<double> epoch_us;
    while (epochs < kCountEpochs || secs_since(t_start) < seconds) {
      uint64_t e0 = now_ns();
      for (uint64_t i = 0; i < kOpsPerEpoch; ++i) {
        uint64_t key = keys.next(rng);
        if (rng.next_below(2) == 0) {
          env.map->put(key, ++value);
          env.golden[key] = value;
          ++updates;
        } else {
          uint64_t v = 0;
          if (!env.map->find(key, &v) || v != env.golden[key]) ++mismatches;
        }
      }
      ops += kOpsPerEpoch;
      uint64_t c0 = now_ns();
      env.policy->checkpoint();
      uint64_t c1 = now_ns();
      ++epochs;
      ckpt_us.push_back(double(c1 - c0) / 1e3);
      epoch_us.push_back(double(c1 - e0) / 1e3);
      if (traced) {
        int64_t root = log.add("ckpt.epoch", e0, c1, -1, epochs);
        log.add("core.exec", e0, c0, root, epochs);
        log.add("core.checkpoint", c0, c1, root, epochs);
      }
      if (epochs == kCountEpochs) {
        s_count = ctr.stats().snapshot();
        n_count = env.dev->stats().snapshot();
        count_updates = updates;
      }
    }
    return double(kOpsPerEpoch) * 1e6 / perfbench::median(epoch_us);
  };
  const double plain_ops_s =
      run_epochs(a.trace ? budget_s / 2 : budget_s, false);
  double traced_ops_s = 0;
  if (a.trace) traced_ops_s = run_epochs(budget_s / 2, true);
  rep.attempted += ops;
  if (mismatches != 0) {
    rep.fail("ckpt-update: %" PRIu64 " GETs disagreed with the golden copy",
             mismatches);
    rep.failed += mismatches - 1;
  }

  // Reopen the container from the device and compare every key with the
  // DRAM golden copy.
  {
    env.map.reset();
    env.policy = std::make_unique<CrpmPolicy>(env.dev.get(),
                                              ckpt_options(kCkptKeys));
    CkMap reopened(*env.policy, kCkptKeys);
    uint64_t bad = 0;
    if (reopened.size() != kCkptKeys) ++bad;
    for (uint64_t k = 0; k < kCkptKeys; ++k) {
      uint64_t v = 0;
      if (!reopened.find(k, &v) || v != env.golden[k]) ++bad;
    }
    rep.attempted += kCkptKeys;
    if (bad != 0) {
      rep.fail("ckpt-update: %" PRIu64 " keys differ after reopen", bad);
      rep.failed += bad - 1;
    }
  }

  const CrpmStatsSnapshot d = s_count - s0;
  const PersistStatsSnapshot n = n_count - n0;
  const uint64_t e = kCountEpochs;
  if (!a.trace) {
    rep.add("ops_per_s", plain_ops_s, "ops/s", epochs);
    rep.pct_us("ckpt", ckpt_us, 50);
    rep.pct_us("ckpt", ckpt_us, 90);
    rep.pct_us("ckpt", ckpt_us, 99);
    rep.add("media_bytes_per_user_byte",
            double(n.media_write_bytes) /
                double(count_updates * kUserBytesPerMapPut),
            "B/B", e);
    return;
  }
  rep.add("trace.overhead_ops_pct",
          traced_ops_s > 0 ? (plain_ops_s / traced_ops_s - 1) * 100 : 0, "%");
  std::vector<double> call = log.self_us("core.checkpoint");
  rep.add("core.ckpt_call_us", perfbench::median(call), "us", call.size());
  std::vector<double> ex = log.self_us("core.exec");
  rep.add("core.exec_us_per_epoch",
          perfbench::median(ex) - perfbench::per_epoch(d.trace_ns, e) / 1e3,
          "us", ex.size());
  rep.add("core.trace_us_per_epoch",
          perfbench::per_epoch(d.trace_ns, e) / 1e3, "us", e);
  rep.add("core.cow_per_epoch", perfbench::per_epoch(d.cow_count, e), "count",
          e);
  rep.add("core.cow_blocks_per_epoch",
          perfbench::per_epoch(d.cow_blocks_copied, e), "count", e);
  rep.add("core.cow_full_per_epoch",
          perfbench::per_epoch(d.cow_full_copies, e), "count", e);
  rep.add("core.eager_cow_per_epoch",
          perfbench::per_epoch(d.eager_cow_segments, e), "count", e);
  rep.add("core.ckpt_bytes_per_epoch",
          perfbench::per_epoch(d.checkpoint_bytes, e), "B", e);
  rep.add("nvm.sfence_per_epoch", perfbench::per_epoch(n.sfence, e), "count",
          e);
  rep.add("nvm.clwb_per_epoch", perfbench::per_epoch(n.clwb, e), "count", e);
  rep.add("nvm.flushed_bytes_per_epoch",
          perfbench::per_epoch(n.flushed_bytes, e), "B", e);
  rep.add("nvm.media_bytes_per_epoch",
          perfbench::per_epoch(n.media_write_bytes, e), "B", e);
  rep.add("nvm.wbinvd_per_epoch", perfbench::per_epoch(n.wbinvd, e), "count",
          e);
}

// ============================================================================
// recover
// ============================================================================

struct RecoverEnv {
  std::string dir, pristine;
  std::vector<uint64_t> golden;  // newest stamp per key
  uint64_t user_bytes = 0;
  snapshot::ArchiveWriterStats arch;
};

KvService::Config recover_config(const std::string& dir) {
  KvService::Config sc;
  sc.dir = dir;
  sc.capacity_bytes = 64ull << 20;
  sc.buckets = 65536;
  sc.interval_ms = 0;  // epochs end on an op count
  sc.archive = true;
  sc.archive_tier = true;
  return sc;
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

// Writes the data directory from seeded PUT epochs, then deletes the
// container file so every restart must come from the archive.
double recover_setup(const Args& a, const RunDir& rd, RecoverEnv* env) {
  env->dir = rd.sub("recover");
  env->pristine = env->dir + ".pristine";
  fs::remove_all(env->dir);
  uint64_t t0 = now_ns();
  fs::create_directories(env->dir);
  env->golden.assign(kRecoverKeys, 0);
  env->user_bytes = 0;
  {
    KvService svc(recover_config(env->dir));
    Xoshiro256 rng(a.seed * 0xD1B54A32D192ED03ULL + 5);
    KeyGen keys(a.workload == "zipf", kRecoverKeys, a.seed + 2);
    uint64_t stamp = 0;
    auto put = [&](uint64_t k) {
      env->golden[k] = ++stamp;
      svc.put(k, make_value(k, stamp));
      env->user_bytes += kUserBytesPerKvPut;
    };
    for (uint64_t k = 0; k < kRecoverKeys; ++k) {
      put(k);
      if ((k + 1) % 50000 == 0) {
        svc.request_checkpoint();
        svc.flush();
      }
    }
    for (uint64_t e = 0; e < kRecoverEpochs; ++e) {
      for (uint64_t i = 0; i < kRecoverPutsPerEpoch; ++i) put(keys.next(rng));
      svc.request_checkpoint();
      svc.flush();
    }
    if (auto* aw = svc.store().archive_writer()) {
      aw->drain();
      env->arch = aw->writer_stats();
    }
  }
  fs::remove(StateStore::container_path(env->dir, 0));
  copy_dir(env->dir, env->pristine);
  return secs_since(t0);
}

// Compares every key of `svc` with the golden stamps.
uint64_t verify_service(KvService& svc, const RecoverEnv& env) {
  uint64_t bad = 0;
  for (uint64_t k = 0; k < kRecoverKeys; ++k) {
    KvVal v;
    uint64_t s = 0;
    if (!svc.get(k, &v) || !check_value(v, k, &s) || s != env.golden[k]) {
      ++bad;
    }
  }
  return bad;
}

void run_recover(const Args& a, const RunDir& rd, Report& rep, SpanLog& log,
                 std::vector<double>* setup_s) {
  std::printf("== recover: %" PRIu64 " keys, %" PRIu64 " update epochs of %"
              PRIu64 " %s PUTs, container deleted ==\n",
              kRecoverKeys, kRecoverEpochs, kRecoverPutsPerEpoch,
              a.workload.c_str());
  RecoverEnv env;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(recover_setup(a, rd, &env));
  }
  setup_s->push_back(perfbench::median(setups));
  const uint32_t workers = ncpu();
  const double budget_s = a.seconds * kRecoverShare;
  Xoshiro256 rng(a.seed + 99);

  auto check = [&](KvService& svc, const char* what) {
    uint64_t bad = verify_service(svc, env);
    rep.attempted += kRecoverKeys;
    if (bad != 0) {
      rep.fail("recover (%s): %" PRIu64 " keys differ from the golden model",
               what, bad);
      rep.failed += bad - 1;
    }
  };

  if (!a.trace) {
    std::vector<double> restore_s, ttfq_ms;
    uint64_t t_start = now_ns();
    while (restore_s.size() < 3 || secs_since(t_start) < budget_s) {
      copy_dir(env.pristine, env.dir);
      {
        KvService::Config sc = recover_config(env.dir);
        sc.restore_workers = workers;
        uint64_t t0 = now_ns();
        KvService svc(sc);
        restore_s.push_back(secs_since(t0));
        check(svc, "blocking");
      }
      copy_dir(env.pristine, env.dir);
      {
        KvService::Config sc = recover_config(env.dir);
        sc.restore_workers = workers;
        sc.lazy_restore = true;
        uint64_t cold = rng.next_below(kRecoverKeys);
        uint64_t t0 = now_ns();
        KvService svc(sc);
        KvVal v;
        uint64_t s = 0;
        bool ok = svc.get(cold, &v) && check_value(v, cold, &s) &&
                  s == env.golden[cold];
        ttfq_ms.push_back(double(now_ns() - t0) / 1e6);
        ++rep.attempted;
        if (!ok) rep.fail("recover (lazy): first GET of key %" PRIu64, cold);
        svc.wait_ready();
        check(svc, "lazy");
      }
    }
    rep.add("restore_s", perfbench::median(restore_s), "s", restore_s.size());
    rep.add("ttfq_ms", perfbench::median(ttfq_ms), "ms", ttfq_ms.size());
    rep.add("archive_bytes_per_user_byte",
            double(env.arch.bytes_appended) / double(env.user_bytes), "B/B",
            env.arch.epochs_appended);
    return;
  }

  // Traced: the restore path's public functions, called directly.
  const uint64_t ae = env.arch.epochs_appended;
  rep.add("recover.archive.bytes_per_epoch",
          perfbench::per_epoch(env.arch.bytes_appended, ae), "B", ae);
  rep.add("recover.archive.raw_bytes_per_epoch",
          perfbench::per_epoch(env.arch.raw_bytes, ae), "B", ae);
  const std::string archive = StateStore::archive_path(env.dir, 0);
  const std::string ctr_path = StateStore::container_path(env.dir, 0);
  CrpmOptions opt;
  opt.main_region_size = recover_config(env.dir).capacity_bytes;
  opt.restore_workers = workers;
  std::vector<double> scan_ms, crit_ms, total_ms, build_ms, start_ms,
      first_ms, ready_s;
  uint64_t frames = 0, records = 0;
  uint64_t t_start = now_ns();
  while (scan_ms.size() < 3 || secs_since(t_start) < budget_s) {
    copy_dir(env.pristine, env.dir);
    uint64_t t0 = now_ns();
    uint64_t latest = 0;
    {
      snapshot::ArchiveReader reader(archive);
      if (!reader.ok() || !reader.latest_restorable(&latest)) {
        rep.fail("recover: archive not restorable");
        return;
      }
    }
    uint64_t t1 = now_ns();
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    snapshot::RestorePerf perf;
    std::string err;
    if (!snapshot::read_state(archive, latest, &image, &roots, &err, workers,
                              &perf)) {
      rep.fail("recover: read_state: %s", err.c_str());
      return;
    }
    uint64_t t2 = now_ns();
    snapshot::RestoreResult res = snapshot::build_container_file(
        image.data(), image.size(), roots, latest, ctr_path, opt);
    uint64_t t3 = now_ns();
    if (res.container == nullptr) {
      rep.fail("recover: build_container_file: %s", res.error.c_str());
      return;
    }
    res.container.reset();
    int64_t root = log.add("restore.blocking", t0, t3);
    log.add("restore.scan", t0, t1, root);
    log.add("restore.read_state", t1, t2, root);
    log.add("restore.build", t2, t3, root);
    scan_ms.push_back(double(t1 - t0) / 1e6);
    crit_ms.push_back(double(perf.apply_ns_critical) / 1e6);
    total_ms.push_back(double(perf.apply_ns_total) / 1e6);
    build_ms.push_back(double(t3 - t2) / 1e6);
    frames = perf.frames;
    records = perf.records;
    {
      // The rebuilt file must serve the golden state.
      KvService svc(recover_config(env.dir));
      check(svc, "read_state + build_container_file");
    }

    copy_dir(env.pristine, env.dir);
    uint64_t l0 = now_ns();
    auto lazy = snapshot::restore_lazy(archive, Container::kLatestEpoch, opt);
    uint64_t l1 = now_ns();
    if (!lazy->ok()) {
      rep.fail("recover: restore_lazy: %s", lazy->error().c_str());
      return;
    }
    // First read of a cold chunk, then the rest.
    uint64_t off = rng.next_below(lazy->size() / 64) * 64;
    volatile uint8_t sink = lazy->data()[off];
    (void)sink;
    uint64_t l2 = now_ns();
    lazy->materialize_all(workers);
    snapshot::RestoreResult lres = lazy->finish_file(ctr_path, opt);
    uint64_t l3 = now_ns();
    if (lres.container == nullptr) {
      rep.fail("recover: finish_file: %s", lres.error.c_str());
      return;
    }
    lres.container.reset();
    lazy.reset();
    int64_t lroot = log.add("lazy.restart", l0, l3);
    log.add("lazy.start", l0, l1, lroot);
    log.add("lazy.first_read", l1, l2, lroot);
    log.add("lazy.materialize_finish", l2, l3, lroot);
    start_ms.push_back(double(l1 - l0) / 1e6);
    first_ms.push_back(double(l2 - l1) / 1e6);
    ready_s.push_back(double(l3 - l0) / 1e9);
    {
      KvService svc(recover_config(env.dir));
      check(svc, "lazy restorer + finish_file");
    }
  }
  rep.add("restore.scan_ms", perfbench::median(scan_ms), "ms", scan_ms.size());
  rep.add("restore.apply_ms_critical", perfbench::median(crit_ms), "ms",
          crit_ms.size());
  rep.add("restore.apply_ms_total", perfbench::median(total_ms), "ms",
          total_ms.size());
  rep.add("restore.build_ms", perfbench::median(build_ms), "ms",
          build_ms.size());
  rep.add("restore.frames", double(frames), "count");
  rep.add("restore.records", double(records), "count");
  rep.add("lazy.start_ms", perfbench::median(start_ms), "ms", start_ms.size());
  rep.add("lazy.first_read_ms", perfbench::median(first_ms), "ms",
          first_ms.size());
  rep.add("lazy.ready_s", perfbench::median(ready_s), "s", ready_s.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload zipf|uniform --seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Report rep;
  SpanLog log(a.trace);
  std::vector<double> setup_s;
  try {
    RunDir rd;
    auto timed = [&rep](const char* name, const auto& fn) {
      uint64_t t0 = now_ns();
      uint64_t attempted = rep.attempted, failed = rep.failed;
      fn();
      std::printf("  (%s: %" PRIu64 " operations attempted, %" PRIu64
                  " failed; took %.1f s)\n",
                  name, rep.attempted - attempted, rep.failed - failed,
                  secs_since(t0));
    };
    timed("kvd-mixed", [&] { run_kvd(a, rd, rep, log, &setup_s); });
    timed("ckpt-update", [&] { run_ckpt(a, rep, log, &setup_s); });
    timed("recover", [&] { run_recover(a, rd, rep, log, &setup_s); });
  } catch (const std::exception& e) {
    rep.fail("%s", e.what());
  }
  if (!a.trace) {
    double total = 0;
    for (double s : setup_s) total += s;
    rep.add("setup_s", total, "s", setup_s.size());
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    rep.add("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB");
  }
  log.write(a.trace_out);
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " (share %.6f)\n",
              rep.attempted, rep.failed,
              perfbench::failure_share(rep.failed, rep.attempted));
  rep.print_json();
  return rep.correct ? 0 : 1;
}
