// loadgen: the repo benchmark's load generator.
//
// One process stands up live daemons on loopback — a primary
// net::RouteServer over a service::RouteService, and on churn_mesh a
// primary -> mid -> leaf chain of replica::ReplicaService tiers, each
// fronted by its own RouteServer — then drives them with fpss-wire clients
// for a fixed window and prints one JSON result line. See README.md for the
// workloads, the metric map and how to read a traced run.
//
//   loadgen --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// runs an untraced phase of S/2 seconds, then a traced phase of S seconds,
// and reports the per-layer metrics of the traced phase plus the tracing
// overhead between the two. Exit codes: 0 result printed and the
// correctness gate passed; 1 result printed and the gate failed; 2 bad
// arguments or a deployment that did not come up; 3 a percentile had too
// few samples to report (no result printed).

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "loadgen must not be built with sanitizers: they distort every timing"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#error "loadgen must not be built with sanitizers: they distort every timing"
#endif
#endif
#if !defined(__OPTIMIZE__)
#error "loadgen must be built with optimisation (Release or RelWithDebInfo)"
#endif

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "histogram.h"
#include "mechanism/vcg.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "replica/replica.h"
#include "service/service.h"
#include "traced_backend.h"
#include "util/rng.h"

namespace {

using namespace fpss;
using loadbench::Histogram;
using loadbench::now_ns;
using loadbench::TracedBackend;
using Delta = service::RouteService::Delta;

constexpr int kSetupRepeats = 9;
/// Untimed load before the measured window, so caches, lazy set-up and the
/// daemons' thread pools are warm when timing starts.
constexpr double kWarmupSeconds = 2.0;
constexpr std::uint64_t kWritePeriodNs = 100'000'000;  // batch_reads writer
constexpr int kProbeWrites = 1000;          // point_reads republish probe
/// A window runs as this many consecutive parts, each with fresh load
/// generator threads (see run_window).
constexpr int kWindowParts = 10;
/// The gated per-part figures are medians over this many of the parts, the
/// ones with the least host steal (see quiet_median).
constexpr std::size_t kQuietParts = kWindowParts / 2;
/// Reference::measure() on a quiet host: a 4-vCPU x86-64 VM (Intel Xeon,
/// GCC 12.2, Release) with the host's steal under 1%. The gated CPU and
/// latency figures are scaled by this over the reference timing taken
/// around each part, so they read as on that quiet host.
constexpr double kReferenceNs = 9.0e6;
constexpr std::size_t kSampleFrames = 32;   // per reader, for codec replay
constexpr std::size_t kGatePairs = 1024;    // (k, i, j) triples per tier
constexpr int kWaitMs = 10000;
/// A failed operation misses every latency limit: it enters the latency
/// histograms at one hour.
constexpr std::uint64_t kFailedNs = 3'600'000'000'000ull;

enum class Writes {
  kProbe,      ///< between read-only parts: closed-loop republish bursts
  kOpenLoop,   ///< during the window: one cost change per period
  kClosedLoop  ///< during the window: next write once the last is visible
};

struct Spec {
  const char* name;
  std::size_t nodes;
  std::size_t shards;
  /// primary -> mid -> leaf, the primary checkpointing into the scratch
  /// directory; the bench's clients talk to the leaf.
  bool mesh;
  int readers;         ///< reader connections
  std::size_t frame;   ///< requests per frame
  std::size_t depth;   ///< frames in flight per reader connection
  bool path_mix;       ///< ~20% kPath + kPairPayment in the request mix
  Writes writes;
  unsigned workers;    ///< RouteServer worker threads per tier
  /// CPUs reserved for the load generator's threads, the daemons keeping
  /// the rest (see split_cpus); 0 leaves placement to the scheduler.
  std::size_t client_cpus;
};

constexpr Spec kSpecs[] = {
    {.name = "point_reads", .nodes = 128, .shards = 1, .mesh = false,
     .readers = 2, .frame = 1, .depth = 4, .path_mix = false,
     .writes = Writes::kProbe, .workers = 4, .client_cpus = 2},
    {.name = "batch_reads", .nodes = 64, .shards = 1, .mesh = false,
     .readers = 2, .frame = 256, .depth = 1, .path_mix = true,
     .writes = Writes::kOpenLoop, .workers = 4, .client_cpus = 0},
    {.name = "churn_mesh", .nodes = 48, .shards = 4, .mesh = true,
     .readers = 1, .frame = 16, .depth = 4, .path_mix = true,
     .writes = Writes::kClosedLoop, .workers = 6, .client_cpus = 1},
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (stream + 1));
  return util::splitmix64(state);
}

/// A CPU clock in ns; 0 if it cannot be read (a thread that has exited).
/// CPU clocks count only the time a thread really ran: neither the time it
/// waited for a CPU nor the time the host held its vCPU (steal). That is
/// why the gated throughput figures are CPU per operation: on a shared host
/// wall-clock rates move with the neighbours' load far more.
std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// The CPU clock of another thread of this process, by thread id (Linux's
/// encoding of a per-thread scheduler clock).
clockid_t thread_clock(pid_t tid) {
  return static_cast<clockid_t>((~static_cast<std::uint32_t>(tid)) << 3 | 6u);
}

/// Ids of this process's live threads.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec))
    out.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  std::sort(out.begin(), out.end());
  return out;
}

/// Threads in `after` but not in `before` (both sorted).
std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                               const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

/// Host steal counter (USER_HZ ticks summed over CPUs) and the total of all
/// CPU-time ticks, from the first line of /proc/stat; {0, 0} if unreadable.
std::pair<std::uint64_t, std::uint64_t> read_host_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  std::uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

/// The process's CPUs split into a daemon set and a client set, so the
/// load generator runs apart from the daemons it measures, as a client on
/// another host would. Left to the scheduler, where the busy threads
/// (readers, their workers, the updater, sync loops) settle can hold for a
/// whole run. On a 4-vCPU VM a split more than halved the run-to-run
/// spread of point_reads' reads and writes. batch_reads stays unpinned:
/// its readers mostly wait on the daemon, and one shared client CPU cut
/// its read_qps by a sixth without steadying its writes.
struct CpuSplit {
  cpu_set_t daemons, clients;
  bool active = false;
};

/// The CPUs this process may run on.
std::vector<std::size_t> allowed_cpus() {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::vector<std::size_t> out;
  if (sched_getaffinity(0, sizeof all, &all) == 0)
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all)) out.push_back(c);
  return out;
}

CpuSplit split_cpus(const std::vector<std::size_t>& cpus,
                    std::size_t client_cpus) {
  CpuSplit split;
  if (client_cpus == 0 || cpus.size() <= client_cpus) return split;
  CPU_ZERO(&split.daemons);
  CPU_ZERO(&split.clients);
  for (std::size_t k = 0; k < cpus.size(); ++k)
    CPU_SET(cpus[k], k + client_cpus < cpus.size() ? &split.daemons
                                                   : &split.clients);
  split.active = true;
  return split;
}

/// Pins the calling thread (and the threads it goes on to create) to `set`.
void pin_thread(const CpuSplit& split, const cpu_set_t& set) {
  if (split.active) (void)sched_setaffinity(0, sizeof set, &set);
}

// --- host speed reference ----------------------------------------------------

/// A fixed amount of work that shares no code with the daemons, run on
/// every CPU at once: a dependent integer hash (ALU latency), four
/// independent hash lanes over a 256 KB buffer (throughput, L2), sorts of
/// 16 K integers (branches) and cheap system calls (kernel entry). Its CPU
/// time tracks how fast the host runs this VM's vCPUs at the moment: under
/// host contention it slowed about as the daemons' CPU per operation did
/// (see README.md), while a change to the daemons' code leaves it alone.
class Reference {
 public:
  /// `cpus`: the CPUs to run on, one thread each.
  explicit Reference(std::vector<std::size_t> cpus)
      : lanes_(kLaneWords), keys_(kSortKeys), cpus_(std::move(cpus)) {
    util::Rng rng(0x5eed);
    for (std::uint64_t& x : lanes_) x = rng();
    for (std::uint32_t& x : keys_) x = static_cast<std::uint32_t>(rng());
  }

  /// CPU ns one CPU spends on the reference work: the mean over the CPUs,
  /// median of five rounds.
  double measure() const {
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint64_t> took(cpus_.size());
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < cpus_.size(); ++c)
        threads.emplace_back([this, c, &took] {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus_[c], &one);
          (void)sched_setaffinity(0, sizeof one, &one);
          took[c] = work();
        });
      for (std::thread& t : threads) t.join();
      double sum = 0;
      for (const std::uint64_t ns : took) sum += static_cast<double>(ns);
      rounds.push_back(sum / static_cast<double>(took.size()));
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[rounds.size() / 2];
  }

 private:
  static constexpr std::size_t kLaneWords = (256u << 10) / 8;
  static constexpr std::size_t kSortKeys = 16u << 10;

  std::uint64_t work() const {
    constexpr std::uint64_t kMul = 0x100000001b3ull;
    const std::uint64_t t0 = thread_cpu_ns();
    std::uint64_t h = 1;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h += i;
    }
    std::uint64_t l0 = 1, l1 = 2, l2 = 3, l3 = 4;
    for (int pass = 0; pass < 200; ++pass)
      for (std::size_t i = 0; i < kLaneWords; i += 4) {
        l0 = (l0 ^ lanes_[i]) * kMul;
        l1 = (l1 ^ lanes_[i + 1]) * kMul;
        l2 = (l2 ^ lanes_[i + 2]) * kMul;
        l3 = (l3 ^ lanes_[i + 3]) * kMul;
      }
    h += l0 ^ l1 ^ l2 ^ l3;
    for (int sort = 0; sort < 2; ++sort) {
      std::vector<std::uint32_t> keys = keys_;
      std::sort(keys.begin(), keys.end());
      h += keys[static_cast<std::size_t>(sort)];
    }
    for (int i = 0; i < 10'000; ++i) h += static_cast<std::uint64_t>(getppid());
    sink_.fetch_add(h, std::memory_order_relaxed);
    return thread_cpu_ns() - t0;
  }

  std::vector<std::uint64_t> lanes_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::size_t> cpus_;
  mutable std::atomic<std::uint64_t> sink_{0};
};

/// Peak resident set (VmHWM) of this process.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- deployment --------------------------------------------------------------

/// Everything one run serves from, built in dependency order. Members are
/// destroyed in reverse: the bench's clients first, then leaf-first down
/// the chain, so every tier outlives the tier syncing from it and every
/// server dies before the backend it fronts.
struct Deployment {
  Deployment(const Spec& spec, std::uint64_t seed,
             const std::string& checkpoint_dir)
      : mirror(bench::internet_like(spec.nodes, seed)) {
    service::ServiceConfig config;
    config.shards = spec.shards;
    if (spec.mesh) config.checkpoint.directory = checkpoint_dir;
    primary = std::make_unique<service::RouteService>(mirror, config);
    primary_backend = std::make_unique<net::ServiceBackend>(*primary);
    primary_traced = std::make_unique<TracedBackend>(*primary_backend);
    net::ServerConfig server_config;
    server_config.workers = spec.workers;
    // The point_reads probe writer idles through each read-only part; the
    // daemon's default 5 s idle reap would close it on a long window.
    server_config.read_timeout_ms = 120'000;
    std::vector<pid_t> before = thread_ids();
    primary_server =
        std::make_unique<net::RouteServer>(*primary_traced, server_config);
    serving_threads = new_threads(before, thread_ids());
    if (!primary_server->ok()) {
      error = "primary bind: " + primary_server->error();
      return;
    }
    if (spec.mesh) {
      replica::ReplicaConfig rc;
      rc.upstream.port = primary_server->port();
      mid = std::make_unique<replica::ReplicaService>(rc);
      if (!mid->wait_until_ready(kWaitMs)) {
        error = "mid replica never synced";
        return;
      }
      mid_server = std::make_unique<net::RouteServer>(*mid, server_config);
      if (!mid_server->ok()) {
        error = "mid bind: " + mid_server->error();
        return;
      }
      rc.upstream.port = mid_server->port();
      leaf = std::make_unique<replica::ReplicaService>(rc);
      if (!leaf->wait_until_ready(kWaitMs) ||
          leaf->wait_for_publish_beyond(primary->publish_count() - 1,
                                        kWaitMs) < primary->publish_count()) {
        error = "leaf replica never synced";
        return;
      }
      leaf_traced = std::make_unique<TracedBackend>(*leaf);
      before = thread_ids();
      leaf_server =
          std::make_unique<net::RouteServer>(*leaf_traced, server_config);
      serving_threads = new_threads(before, thread_ids());
      if (!leaf_server->ok()) {
        error = "leaf bind: " + leaf_server->error();
        return;
      }
    }
    for (int r = 0; r <= spec.readers; ++r) {
      auto client = std::make_unique<net::RouteClient>(client_config());
      const net::ClientError err = client->connect();
      if (!err.ok()) {
        error = "client connect: " + err.message;
        return;
      }
      if (r < spec.readers)
        readers.push_back(std::move(client));
      else
        writer = std::move(client);
    }
    ok = true;
  }

  /// The tier the bench's clients talk to: the leaf on a mesh.
  TracedBackend& serving() const {
    return leaf ? *leaf_traced : *primary_traced;
  }
  net::ClientConfig client_config() const {
    net::ClientConfig config;
    config.port = (leaf_server ? leaf_server : primary_server)->port();
    return config;
  }
  std::vector<const net::RouteServer*> servers() const {
    std::vector<const net::RouteServer*> out{primary_server.get()};
    if (mid_server) out.push_back(mid_server.get());
    if (leaf_server) out.push_back(leaf_server.get());
    return out;
  }
  /// CPU the serving tier's RouteServer threads (acceptor and workers) have
  /// used: the daemon side of the read path.
  std::uint64_t serving_cpu_ns() const {
    std::uint64_t sum = 0;
    for (const pid_t tid : serving_threads) sum += clock_ns(thread_clock(tid));
    return sum;
  }

  bool ok = false;
  std::string error;
  /// The bench's own copy of the topology; every acknowledged write is
  /// applied to it, and the correctness gate prices it centrally.
  graph::Graph mirror;
  std::unique_ptr<service::RouteService> primary;
  std::unique_ptr<net::ServiceBackend> primary_backend;
  std::unique_ptr<TracedBackend> primary_traced;
  std::unique_ptr<net::RouteServer> primary_server;
  std::unique_ptr<replica::ReplicaService> mid;
  std::unique_ptr<net::RouteServer> mid_server;
  std::unique_ptr<replica::ReplicaService> leaf;
  std::unique_ptr<TracedBackend> leaf_traced;
  std::unique_ptr<net::RouteServer> leaf_server;
  /// The threads the serving tier's RouteServer started.
  std::vector<pid_t> serving_threads;
  std::vector<std::unique_ptr<net::RouteClient>> readers;
  std::unique_ptr<net::RouteClient> writer;
};

// --- one measured window -----------------------------------------------------

struct Sample {
  std::vector<service::Request> requests;
  std::vector<service::Reply> replies;
};

/// Counter state at one edge of a window.
struct Edge {
  service::RouteService::Counters primary;
  net::ReplicaCounters leaf;
  std::uint64_t frames = 0, rejected = 0, timeouts = 0;
  std::uint64_t cpu = 0;
  std::uint64_t steal_ticks = 0, host_ticks = 0;

  static Edge take(const Deployment& d) {
    Edge e;
    e.primary = d.primary->counters();
    if (d.leaf) e.leaf = d.leaf->replication_counters();
    for (const net::RouteServer* s : d.servers()) {
      const auto stats = s->stats();
      e.frames += stats.frames;
      e.rejected += stats.rejected_frames;
      e.timeouts += stats.timeouts;
    }
    e.cpu = cpu_ns();
    std::tie(e.steal_ticks, e.host_ticks) = read_host_ticks();
    return e;
  }
};

struct Window {
  double read_seconds = 0;
  std::uint64_t read_attempted = 0, read_failed = 0, answered = 0;
  /// Queries answered per one-second slice of the read window.
  std::vector<std::uint64_t> slices;
  std::uint64_t write_attempted = 0, write_failed = 0, writes_late = 0;
  /// Sums over frames whose daemon-side span was paired (traced only).
  std::uint64_t paired_rtt_ns = 0, paired_span_ns = 0;
  /// Each part's frame round-trip p50 and p90 (ns), nullopt when a part
  /// had too few frames to report one.
  std::vector<std::optional<double>> part_p50, part_p90;
  /// Write latencies (ns) in completion order; a failed write enters at
  /// kFailedNs.
  std::vector<std::uint64_t> write_ack, write_visible;
  Histogram rtt, self, lateness;
  Histogram reconverge, forward, propagate;
  std::vector<Sample> samples;
  /// CPU the reader connections' own threads used.
  std::uint64_t reader_cpu_ns = 0;
  /// Each part's CPU per answered read query and per completed write (ns);
  /// nullopt for a part with no operation of that kind. The read path is
  /// the serving tier's RouteServer threads plus the reader connections'
  /// threads. The write side is the rest of the process: the writer
  /// connection, the updater (reconverge, export, publish, checkpoint), the
  /// replicas' sync loops and the upstream tiers' servers.
  std::vector<std::optional<double>> part_read_cpu, part_write_cpu;
  /// Each part's host steal share (see Edge::take).
  std::vector<double> part_steal;
  /// Reference::measure() before each part and after the last.
  std::vector<double> part_ref;

  /// How much slower than kReferenceNs the host ran part `k`: the mean of
  /// the reference timings on either side of it over the nominal.
  double slowdown(std::size_t k) const {
    return (part_ref[k] + part_ref[k + 1]) / 2.0 / kReferenceNs;
  }
  Edge before, after;

  std::uint64_t attempted() const { return read_attempted + write_attempted; }
  std::uint64_t failed() const { return read_failed + write_failed; }
  std::uint64_t writes_done() const { return write_attempted - write_failed; }
  /// Share of the host's CPU time stolen from this VM during the window.
  double steal_share() const {
    const std::uint64_t total = after.host_ticks - before.host_ticks;
    return total == 0 ? 0.0
                      : static_cast<double>(after.steal_ticks -
                                            before.steal_ticks) /
                            static_cast<double>(total);
  }
};

service::Request next_request(util::Rng& rng, std::size_t n, bool path_mix) {
  static constexpr service::RequestKind kPoint[] = {
      service::RequestKind::kCost, service::RequestKind::kPrice,
      service::RequestKind::kNextHop};
  service::Request r;
  const std::uint64_t roll = path_mix ? rng.below(10) : 2;
  if (roll == 0)
    r.kind = service::RequestKind::kPath;
  else if (roll == 1)
    r.kind = service::RequestKind::kPairPayment;
  else
    r.kind = kPoint[rng.below(3)];
  r.i = static_cast<NodeId>(rng.below(n));
  r.j = static_cast<NodeId>(rng.below(n - 1));
  if (r.j >= r.i) ++r.j;
  if (r.kind == service::RequestKind::kPrice)
    r.k = static_cast<NodeId>(rng.below(n));
  return r;
}

struct ReaderResult {
  std::uint64_t attempted = 0, failed = 0, answered = 0, cpu_ns = 0;
  std::vector<std::uint64_t> slices;
  std::uint64_t paired_rtt_ns = 0, paired_span_ns = 0;
  std::unique_ptr<Histogram> rtt = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> self = std::make_unique<Histogram>();
  std::vector<Sample> samples;
};

/// One reader connection: keeps `spec.depth` frames in flight until the
/// deadline, then drains. Counts a frame's requests failed on a client
/// error or a snapshot version older than one already seen.
void reader_loop(const Spec& spec, Deployment& d, net::RouteClient& client,
                 std::uint64_t seed, std::uint64_t start,
                 std::uint64_t deadline, bool traced, ReaderResult& out) {
  struct InFlight {
    std::uint64_t sent;
    std::uint64_t key;
    std::vector<service::Request> batch;
  };
  util::Rng rng(seed);
  const std::size_t n = d.mirror.node_count();
  const TracedBackend& tier = d.serving();
  std::deque<InFlight> inflight;
  std::uint64_t last_version = 0;
  for (;;) {
    while (inflight.size() < spec.depth && now_ns() < deadline) {
      InFlight f;
      f.batch.reserve(spec.frame);
      for (std::size_t q = 0; q < spec.frame; ++q)
        f.batch.push_back(next_request(rng, n, spec.path_mix));
      f.key = traced ? loadbench::fingerprint(f.batch) : 0;
      f.sent = now_ns();
      if (!client.send(f.batch).ok()) {
        out.attempted += f.batch.size();
        out.failed += f.batch.size();
        break;
      }
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) {
      if (now_ns() >= deadline) return;
      // A failed send closed the connection: redial and keep going.
      if (!client.connect().ok()) return;
      continue;
    }
    net::QueryResult result = client.receive();
    const std::uint64_t received = now_ns();
    const std::uint64_t rtt = received - inflight.front().sent;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    out.attempted += f.batch.size();
    if (!result.ok() || result.replies.size() != f.batch.size()) {
      out.failed += f.batch.size();
      for (const InFlight& lost : inflight) {
        out.attempted += lost.batch.size();
        out.failed += lost.batch.size();
      }
      inflight.clear();
      continue;
    }
    std::uint64_t ok = 0, bad = 0;
    bool backwards = false;
    for (const service::Reply& reply : result.replies) {
      if (reply.snapshot_version < last_version) backwards = true;
      last_version = std::max(last_version, reply.snapshot_version);
      if (reply.status == service::Status::kOk)
        ++ok;
      else if (reply.status != service::Status::kUnreachable)
        ++bad;
    }
    if (backwards) {
      out.failed += f.batch.size();
    } else {
      out.failed += bad;
      out.answered += ok;
      const std::size_t slice = (received - start) / 1'000'000'000ull;
      if (slice >= out.slices.size()) out.slices.resize(slice + 1, 0);
      out.slices[slice] += ok;
    }
    out.rtt->add(rtt);
    if (traced) {
      const std::uint64_t span = tier.take_span(f.key);
      if (span != 0 && span <= rtt) {
        out.self->add(rtt - span);
        out.paired_rtt_ns += rtt;
        out.paired_span_ns += span;
      }
    }
    if (out.samples.size() < kSampleFrames)
      out.samples.push_back({std::move(f.batch), std::move(result.replies)});
  }
}

/// A cost change that really changes the node's cost (so every write
/// reconverges), drawn from the write stream.
Delta next_write(util::Rng& rng, const graph::Graph& mirror) {
  const auto node = static_cast<NodeId>(rng.below(mirror.node_count()));
  auto cost = static_cast<Cost::rep>(1 + rng.below(10));
  if (mirror.cost(node) == Cost{cost}) cost = cost % 10 + 1;
  return Delta::cost_change(node, Cost{cost});
}

/// Submits one write through the bench's writer connection and waits until
/// the serving tier publishes it; times both from `scheduled`.
void timed_write(Deployment& d, const Delta& delta, std::uint64_t scheduled,
                 bool traced, Window& w) {
  const std::uint64_t publish_ns_before =
      traced ? d.primary->counters().publish_total_ns : 0;
  ++w.write_attempted;
  const net::SubmitResult ack =
      d.writer->submit_deltas(std::span<const Delta>(&delta, 1));
  const std::uint64_t acked = now_ns();
  if (!ack.ok() || ack.accepted != 1) {
    ++w.write_failed;
    w.write_ack.push_back(kFailedNs);
    w.write_visible.push_back(kFailedNs);
    if (!d.writer->connected()) (void)d.writer->connect();
    return;
  }
  if (delta.kind == Delta::Kind::kCostChange)
    d.mirror.set_cost(delta.u, delta.cost);
  const std::uint64_t seen =
      d.serving().wait_for_publish_beyond(ack.publish_count - 1, kWaitMs);
  const std::uint64_t visible = now_ns();
  w.write_ack.push_back(acked - scheduled);
  if (seen < ack.publish_count) {
    ++w.write_failed;
    w.write_visible.push_back(kFailedNs);
    return;
  }
  w.write_visible.push_back(visible - scheduled);
  if (!traced) return;
  const std::uint64_t primary_span = d.primary_traced->last_submit_ns();
  const std::uint64_t publish_ns =
      d.primary->counters().publish_total_ns - publish_ns_before;
  w.reconverge.add_signed(static_cast<std::int64_t>(primary_span) -
                          static_cast<std::int64_t>(publish_ns));
  if (d.leaf_traced) {
    w.forward.add_signed(
        static_cast<std::int64_t>(d.leaf_traced->last_submit_ns()) -
        static_cast<std::int64_t>(primary_span));
    w.propagate.add(visible - acked);
  }
}

void writer_loop(const Spec& spec, Deployment& d, std::uint64_t seed,
                 std::uint64_t start, std::uint64_t deadline, bool traced,
                 Window& w) {
  util::Rng rng(seed);
  for (std::uint64_t k = 0;; ++k) {
    std::uint64_t scheduled = now_ns();
    if (spec.writes == Writes::kOpenLoop) {
      scheduled = start + k * kWritePeriodNs;
      if (scheduled >= deadline) return;
      const std::uint64_t now = now_ns();
      if (scheduled > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
      const std::uint64_t late = now_ns() - scheduled;
      w.lateness.add(late);
      if (late > kWritePeriodNs) ++w.writes_late;
    } else if (scheduled >= deadline) {
      return;
    }
    timed_write(d, next_write(rng, d.mirror), scheduled, traced, w);
  }
}

/// One measured window, run as kWindowParts consecutive parts with fresh
/// load generator threads. Where the scheduler happens to place a busy
/// thread can hold for a whole run and move its figures by several percent;
/// fresh threads per part average over ten placements instead of one. On
/// the probe workload each part is reads-only and is followed by a burst
/// of republish writes, so the read window stays write-free and the write
/// samples are spread over the run.
std::unique_ptr<Window> run_window(const Spec& spec, Deployment& d,
                                   const CpuSplit& cpus, const Reference& ref,
                                   std::uint64_t seed, int phase,
                                   double seconds, bool traced) {
  auto w = std::make_unique<Window>();
  for (TracedBackend* t : {d.primary_traced.get(), d.leaf_traced.get()}) {
    if (t == nullptr) continue;
    t->reset_histograms();
    t->set_tracing(traced);
  }
  w->before = Edge::take(d);
  const bool probe = spec.writes == Writes::kProbe;
  const double part_seconds = seconds / kWindowParts;
  for (int part = 0; part < kWindowParts; ++part) {
    w->part_ref.push_back(ref.measure());
    const auto [steal0, ticks0] = read_host_ticks();
    const std::uint64_t part_cpu0 = cpu_ns(), serving0 = d.serving_cpu_ns();
    const std::uint64_t reader0 = w->reader_cpu_ns, answered0 = w->answered;
    const std::uint64_t writes0 = w->writes_done();
    const std::uint64_t stream =
        1000 * static_cast<std::uint64_t>(phase) +
        100 * static_cast<std::uint64_t>(part);
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(part_seconds * 1e9);
    std::vector<ReaderResult> results(d.readers.size());
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < d.readers.size(); ++r)
      threads.emplace_back([&, r] {
        pin_thread(cpus, cpus.clients);
        const std::uint64_t cpu0 = thread_cpu_ns();
        reader_loop(spec, d, *d.readers[r], mix_seed(seed, stream + r), start,
                    deadline, traced, results[r]);
        results[r].cpu_ns = thread_cpu_ns() - cpu0;
      });
    if (!probe)
      threads.emplace_back([&] {
        pin_thread(cpus, cpus.clients);
        writer_loop(spec, d, mix_seed(seed, stream + 99), start, deadline,
                    traced, *w);
      });
    for (std::thread& t : threads) t.join();
    w->read_seconds += static_cast<double>(now_ns() - start) / 1e9;
    const auto whole_slices = static_cast<std::size_t>(part_seconds);
    std::vector<std::uint64_t> slices(whole_slices, 0);
    Histogram part_rtt;
    for (ReaderResult& r : results) {
      w->read_attempted += r.attempted;
      w->read_failed += r.failed;
      w->answered += r.answered;
      w->reader_cpu_ns += r.cpu_ns;
      for (std::size_t i = 0; i < std::min(whole_slices, r.slices.size()); ++i)
        slices[i] += r.slices[i];
      w->paired_rtt_ns += r.paired_rtt_ns;
      w->paired_span_ns += r.paired_span_ns;
      part_rtt.merge(*r.rtt);
      w->self.merge(*r.self);
      for (Sample& s : r.samples)
        if (w->samples.size() < kSampleFrames * d.readers.size())
          w->samples.push_back(std::move(s));
    }
    w->slices.insert(w->slices.end(), slices.begin(), slices.end());
    w->part_p50.push_back(part_rtt.percentile(0.50));
    w->part_p90.push_back(part_rtt.percentile(0.90));
    w->rtt.merge(part_rtt);
    // Republish control writes: the write path minus reconvergence.
    if (probe)
      std::thread([&] {
        pin_thread(cpus, cpus.clients);
        for (int k = 0; k < kProbeWrites / kWindowParts; ++k)
          timed_write(d, Delta::republish(), now_ns(), traced, *w);
      }).join();
    const std::uint64_t all = cpu_ns() - part_cpu0;
    const std::uint64_t read =
        d.serving_cpu_ns() - serving0 + w->reader_cpu_ns - reader0;
    const std::uint64_t answered = w->answered - answered0;
    const std::uint64_t writes = w->writes_done() - writes0;
    const auto per = [](std::uint64_t ns, std::uint64_t ops) {
      return ops == 0 ? std::nullopt
                      : std::optional<double>(static_cast<double>(ns) /
                                              static_cast<double>(ops));
    };
    w->part_read_cpu.push_back(per(read, answered));
    w->part_write_cpu.push_back(per(all > read ? all - read : 0, writes));
    const auto [steal1, ticks1] = read_host_ticks();
    w->part_steal.push_back(
        ticks1 > ticks0 ? static_cast<double>(steal1 - steal0) /
                              static_cast<double>(ticks1 - ticks0)
                        : 0.0);
  }
  w->part_ref.push_back(ref.measure());
  w->after = Edge::take(d);
  for (TracedBackend* t : {d.primary_traced.get(), d.leaf_traced.get()})
    if (t != nullptr) t->set_tracing(false);
  return w;
}

// --- metrics -----------------------------------------------------------------

/// One run's metrics, in the order set, each with its unit. The result line
/// prints exactly these; run.py checks every name and unit against
/// BENCHMARK.json and refuses a run that misses one.
class Report {
 public:
  void set(const char* name, const char* unit, double value) {
    entries_.push_back({name, unit, value});
  }

  std::string json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", e.name, e.value, e.unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    const char* name;
    const char* unit;
    double value;
  };
  std::vector<Entry> entries_;
};

/// Thrown when a percentile has too few samples beyond it to report.
struct TooFewSamples {
  std::string metric;
};

/// A percentile in `scale` units (ns divided by scale). An empty histogram
/// reads 0 — the layer is not exercised on this workload — but a histogram
/// with samples too few for the percentile refuses.
double pct(const Histogram& h, double q, double scale, const char* metric) {
  if (h.count() == 0) return 0.0;
  const std::optional<double> v = h.percentile(q);
  if (!v) throw TooFewSamples{metric};
  return *v / scale;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// grouped_percentile in `scale` units; an empty sample reads 0, like pct.
double grouped_pct(const std::vector<std::uint64_t>& samples, double q,
                   double scale, const char* metric) {
  if (samples.empty()) return 0.0;
  const std::optional<double> v = loadbench::grouped_percentile(
      samples, q, static_cast<std::size_t>(kWindowParts));
  if (!v) throw TooFewSamples{metric};
  return *v / scale;
}

/// Median over the window's parts of a per-part read percentile: a stall
/// that slows a few parts moves the figure far less than it moves the
/// whole-window percentile.
double median_of_parts(const std::vector<std::optional<double>>& parts,
                       const char* metric) {
  std::vector<double> values;
  for (const std::optional<double>& v : parts) {
    if (!v) throw TooFewSamples{metric};
    values.push_back(*v);
  }
  return median_of(values);
}

double read_qps(const Window& w) {
  // Median over the window's whole one-second slices: a burst of host
  // interference moves one slice, not the figure.
  std::vector<double> per_slice(w.slices.begin(), w.slices.end());
  if (per_slice.empty())
    return static_cast<double>(w.answered) / w.read_seconds;
  return median_of(per_slice);
}

/// A per-part figure as loadbench::quiet_median gives it over the quieter
/// half of the window's parts: those in which the host stole the least CPU
/// time from this VM. Steal inflates even CPU time (cold caches, busy
/// sibling threads when the vCPU runs again) and lengthens round trips; it
/// comes and goes from one second to the next, so the quieter parts of a
/// run measure the code, not the neighbours.
double quiet_median(const Window& w,
                    const std::vector<std::optional<double>>& parts,
                    const char* metric, bool scale = true,
                    std::size_t keep = kQuietParts) {
  std::vector<std::optional<double>> scaled;
  for (std::size_t k = 0; k < parts.size(); ++k)
    scaled.push_back(parts[k] ? std::optional<double>(
                                    *parts[k] / (scale ? w.slowdown(k) : 1.0))
                              : std::nullopt);
  const std::optional<double> v =
      loadbench::quiet_median(scaled, w.part_steal, keep);
  if (!v) throw TooFewSamples{metric};
  return *v;
}

/// CPU ns per answered read query.
double read_cpu_ns(const Window& w) {
  return quiet_median(w, w.part_read_cpu, "read_cpu_us");
}

/// CPU ns per completed write: the median over every part, not the quieter
/// half. A part holds 20 writes on batch_reads, and which nodes they change
/// moves a part's cost; halving the parts left the write figure the
/// noisiest of all, while the reference scaling already absorbs most of
/// the steal.
double write_cpu_ns(const Window& w) {
  return quiet_median(w, w.part_write_cpu, "write_cpu_ms", true, kWindowParts);
}

/// The gated figures. Throughput is CPU per operation rather than a
/// wall-clock rate, and latency is gated only at the read median: on a
/// shared host, steal moved wall-clock rates, tails and the multi-hop write
/// latencies by more than any bound between identical runs, while these
/// held. The wall-clock figures remain in the traced run as wall.*.
void end_to_end(const Window& w, const std::vector<double>& setups,
                Report& report) {
  report.set("setup_s", "s", median_of(setups));
  report.set("read_cpu_us", "us", read_cpu_ns(w) / 1e3);
  report.set("read_p50_us", "us",
             quiet_median(w, w.part_p50, "read_p50_us") / 1e3);
  report.set("write_cpu_ms", "ms", write_cpu_ns(w) / 1e6);
  report.set("ok_ratio", "ratio", 1.0 - ratio(w.failed(), w.attempted()));
  report.set("rss_mb", "MB", peak_rss_mb());
}

/// The wall-clock figures of a window: diagnostics, never gated.
void wall_clock(const Window& w, Report& report) {
  report.set("wall.read_qps", "1/s", read_qps(w));
  report.set("wall.read_p90_us", "us",
             median_of_parts(w.part_p90, "wall.read_p90_us") / 1e3);
  report.set("wall.write_ack_p50_ms", "ms",
             grouped_pct(w.write_ack, 0.50, 1e6, "wall.write_ack_p50_ms"));
  report.set("wall.write_ack_p90_ms", "ms",
             grouped_pct(w.write_ack, 0.90, 1e6, "wall.write_ack_p90_ms"));
  report.set("wall.write_visible_p50_ms", "ms",
             grouped_pct(w.write_visible, 0.50, 1e6,
                         "wall.write_visible_p50_ms"));
  report.set("wall.write_visible_p90_ms", "ms",
             grouped_pct(w.write_visible, 0.90, 1e6,
                         "wall.write_visible_p90_ms"));
  report.set("host.steal_pct", "%", w.steal_share() * 100.0);
}

/// Replays the wire layer's encode/decode/validate calls on the window's
/// own sampled frames; returns ns per frame for each of the three groups
/// (median of several rounds) and the exact wire bytes per query.
struct Replay {
  double request_ns = 0, reply_ns = 0, check_ns = 0, bytes_per_query = 0;
};

Replay replay_codec(const std::vector<Sample>& samples) {
  Replay out;
  if (samples.empty()) return out;
  const net::WireLimits limits;
  std::uint64_t bytes = 0, queries = 0;
  std::vector<std::pair<std::string, std::string>> payloads;
  for (const Sample& s : samples) {
    payloads.emplace_back(net::encode_requests(s.requests),
                          net::encode_replies(s.replies));
    bytes += 2 * net::kFrameHeaderBytes + payloads.back().first.size() +
             payloads.back().second.size();
    queries += s.requests.size();
  }
  out.bytes_per_query = ratio(bytes, queries);
  constexpr int kRounds = 7;
  std::vector<double> req, rep, chk;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t t0 = now_ns();
    for (const Sample& s : samples)
      (void)net::decode_requests(net::encode_requests(s.requests),
                                 limits.max_batch);
    const std::uint64_t t1 = now_ns();
    for (const Sample& s : samples)
      (void)net::decode_replies(net::encode_replies(s.replies), limits);
    const std::uint64_t t2 = now_ns();
    for (const auto& [request, reply] : payloads) {
      for (const auto& [type, payload] :
           {std::pair{net::FrameType::kQueryBatch, &request},
            std::pair{net::FrameType::kReplyBatch, &reply}}) {
        const std::string frame = net::encode_frame(type, *payload);
        const std::string_view view(frame);
        const net::HeaderResult h = net::decode_frame_header(
            view.substr(0, net::kFrameHeaderBytes), limits);
        (void)net::payload_checksum_ok(h.header,
                                       view.substr(net::kFrameHeaderBytes));
      }
    }
    const std::uint64_t t3 = now_ns();
    const auto frames = static_cast<double>(samples.size());
    req.push_back(static_cast<double>(t1 - t0) / frames);
    rep.push_back(static_cast<double>(t2 - t1) / frames);
    chk.push_back(static_cast<double>(t3 - t2) / frames);
  }
  out.request_ns = median_of(req);
  out.reply_ns = median_of(rep);
  out.check_ns = median_of(chk);
  return out;
}

void per_layer(const Deployment& d, const Window& untraced, const Window& w,
               Report& report) {
  const auto& p0 = w.before.primary;
  const auto& p1 = w.after.primary;
  const auto& l0 = w.before.leaf;
  const auto& l1 = w.after.leaf;
  const std::uint64_t publishes = p1.publishes - p0.publishes;
  const auto count = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };

  report.set("net.self_us_p50", "us",
             pct(w.self, 0.50, 1e3, "net.self_us_p50"));
  report.set("net.frame_p99_us", "us",
             pct(w.rtt, 0.99, 1e3, "net.frame_p99_us"));
  const Replay replay = replay_codec(w.samples);
  report.set("net.codec_request_ns", "ns", replay.request_ns);
  report.set("net.codec_reply_ns", "ns", replay.reply_ns);
  report.set("net.frame_check_ns", "ns", replay.check_ns);
  report.set("net.bytes_per_query", "bytes", replay.bytes_per_query);
  report.set("net.frames", "count", count(w.after.frames, w.before.frames));
  report.set("net.rejected_frames", "count",
             count(w.after.rejected, w.before.rejected));
  report.set("net.timeouts", "count",
             count(w.after.timeouts, w.before.timeouts));

  TracedBackend& primary = *d.primary_traced;
  report.set("service.query_us_p50", "us",
             pct(primary.query_ns(), 0.50, 1e3, "service.query_us_p50"));
  report.set("service.query_share", "ratio",
             ratio(w.paired_span_ns, w.paired_rtt_ns));
  report.set("service.submit_ms_p50", "ms",
             pct(primary.submit_ns(), 0.50, 1e6, "service.submit_ms_p50"));
  report.set("service.publish_ms_mean", "ms",
             ratio(p1.publish_total_ns - p0.publish_total_ns, publishes) / 1e6);
  report.set("service.rows_rebuilt_per_publish", "rows",
             ratio(p1.rows_rebuilt - p0.rows_rebuilt, publishes));
  report.set("service.shards_republished_per_publish", "shards",
             ratio(p1.shards_republished - p0.shards_republished, publishes));
  report.set("service.full_rebuilds", "count",
             count(p1.full_rebuilds, p0.full_rebuilds));
  report.set("service.checkpoint_bytes_per_publish", "bytes",
             ratio(p1.checkpoint_bytes_written - p0.checkpoint_bytes_written,
                   publishes));
  report.set("service.max_staleness_ms", "ms",
             static_cast<double>(d.serving().counters().max_staleness_ns) /
                 1e6);

  report.set("pricing.reconverge_ms_p50", "ms",
             pct(w.reconverge, 0.50, 1e6, "pricing.reconverge_ms_p50"));

  const std::uint64_t syncs = (l1.full_syncs + l1.delta_syncs) -
                              (l0.full_syncs + l0.delta_syncs);
  report.set("replica.forward_ms_p50", "ms",
             pct(w.forward, 0.50, 1e6, "replica.forward_ms_p50"));
  report.set("replica.propagate_ms_p50", "ms",
             pct(w.propagate, 0.50, 1e6, "replica.propagate_ms_p50"));
  report.set("replica.leaf_query_us_p50", "us",
             d.leaf_traced ? pct(d.leaf_traced->query_ns(), 0.50, 1e3,
                                 "replica.leaf_query_us_p50")
                           : 0.0);
  report.set("replica.bytes_per_sync", "bytes",
             ratio(l1.bytes_fetched - l0.bytes_fetched, syncs));
  report.set("replica.shards_per_sync", "shards",
             ratio(l1.shards_fetched - l0.shards_fetched, syncs));
  report.set("replica.blocks_adopted", "count",
             count(l1.blocks_adopted, l0.blocks_adopted));
  report.set("replica.notifies_coalesced", "count",
             count(l1.notifies_coalesced, l0.notifies_coalesced));
  report.set("replica.resyncs", "count", count(l1.resyncs, l0.resyncs));
  report.set("replica.forward_retries", "count",
             count(l1.forward_retries, l0.forward_retries));
  report.set("replica.forward_rejected", "count",
             count(l1.forward_rejected, l0.forward_rejected));

  report.set("bench.write_lateness_ms_p90", "ms",
             pct(w.lateness, 0.90, 1e6, "bench.write_lateness_ms_p90"));
  report.set("bench.writes_late", "count", static_cast<double>(w.writes_late));
  report.set("process.cpu_us_per_query", "us",
             ratio(w.after.cpu - w.before.cpu, w.answered) / 1e3);
  // Tracing's cost, as the extra CPU per operation it adds.
  const auto overhead = [](double untraced_ns, double traced_ns) {
    return untraced_ns > 0 ? (traced_ns - untraced_ns) / untraced_ns * 100.0
                           : 0.0;
  };
  report.set("bench.tracing_overhead_pct", "%",
             overhead(read_cpu_ns(untraced), read_cpu_ns(w)));
  report.set("bench.tracing_overhead_write_pct", "%",
             overhead(write_cpu_ns(untraced), write_cpu_ns(w)));
  wall_clock(w, report);
}

// --- correctness gate --------------------------------------------------------

/// Outside the timed window: every serving tier, at the final publish,
/// must answer a seeded sample of kCost/kPrice queries exactly as the
/// centralized VCG mechanism on the final topology, and bit-identically
/// to each other. Returns an empty string on success.
std::string gate(Deployment& d, std::uint64_t seed) {
  d.primary->drain();
  const std::uint64_t final_count = d.primary->publish_count();
  for (replica::ReplicaService* r : {d.mid.get(), d.leaf.get()})
    if (r != nullptr &&
        r->wait_for_publish_beyond(final_count - 1, kWaitMs) < final_count)
      return "a replica never reached the final publish";

  const mechanism::VcgMechanism mech(d.mirror);
  const std::size_t n = d.mirror.node_count();
  util::Rng rng(mix_seed(seed, 7777));
  std::vector<service::Request> requests;
  std::vector<Cost> expected;
  for (std::size_t s = 0; s < kGatePairs; ++s) {
    const auto i = static_cast<NodeId>(rng.below(n));
    auto j = static_cast<NodeId>(rng.below(n - 1));
    if (j >= i) ++j;
    const auto k = static_cast<NodeId>(rng.below(n));
    requests.push_back({service::RequestKind::kCost, kInvalidNode, i, j});
    expected.push_back(mech.routes().cost(i, j));
    requests.push_back({service::RequestKind::kPrice, k, i, j});
    expected.push_back(mech.price(k, i, j));
  }

  std::vector<service::Reply> reference;
  for (const net::RouteServer* server : d.servers()) {
    net::ClientConfig config;
    config.port = server->port();
    net::RouteClient client(config);
    if (!client.connect().ok()) return "gate client could not connect";
    std::vector<service::Reply> replies;
    for (std::size_t at = 0; at < requests.size(); at += 256) {
      const std::size_t len = std::min<std::size_t>(256, requests.size() - at);
      net::QueryResult result = client.query(
          std::span<const service::Request>(requests).subspan(at, len));
      if (!result.ok()) return "gate query failed: " + result.error.message;
      for (auto& reply : result.replies) replies.push_back(std::move(reply));
    }
    if (replies.size() != requests.size()) return "gate reply count mismatch";
    for (std::size_t q = 0; q < requests.size(); ++q) {
      if (replies[q].status != service::Status::kOk ||
          replies[q].value != expected[q])
        return "tier on port " + std::to_string(server->port()) +
               " disagrees with VCG at query " + std::to_string(q);
      if (!reference.empty() && !service::same_answer(replies[q], reference[q]))
        return "tiers disagree at query " + std::to_string(q);
    }
    if (reference.empty()) reference = std::move(replies);
  }
  return {};
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".bench_build/scratch";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed")
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      a.trace = std::atoi(value.c_str());
    else if (flag == "--scratch")
      a.scratch = value;
    else
      return std::nullopt;
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: loadgen --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (args->workload == s.name) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "loadgen: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
      spec->name, static_cast<unsigned long long>(args->seed),
      std::thread::hardware_concurrency(), __VERSION__, LOADBENCH_BUILD_TYPE);
  std::fflush(stdout);

  // Set before the first daemon starts: every thread the daemons create
  // inherits the daemon set.
  const std::vector<std::size_t> all_cpus = allowed_cpus();
  const Reference ref(all_cpus);
  const CpuSplit cpus = split_cpus(all_cpus, spec->client_cpus);
  pin_thread(cpus, cpus.daemons);

  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::path(args->scratch) / ("run-" + std::to_string(getpid()));
  std::unique_ptr<Deployment> d;
  // Set-up times in s, and the reference timing before each set-up and
  // after the last: each set-up is scaled like the window's figures.
  std::vector<double> setups, setup_refs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    d.reset();  // tear the previous repetition down before timing the next
    setup_refs.push_back(ref.measure());
    const fs::path dir = scratch / ("ckpt-" + std::to_string(rep));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    // Each set-up but the last builds its own topology from a seed derived
    // from --seed, so setup_s is a median over nine topologies rather than
    // one; the last builds the run's own topology from --seed itself.
    const std::uint64_t topology_seed =
        rep + 1 == kSetupRepeats
            ? args->seed
            : mix_seed(args->seed, 5000 + static_cast<std::uint64_t>(rep));
    const std::uint64_t start = now_ns();
    d = std::make_unique<Deployment>(*spec, topology_seed, dir.string());
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (!d->ok) {
      std::fprintf(stderr, "loadgen: setup failed: %s\n", d->error.c_str());
      return 2;
    }
  }
  setup_refs.push_back(ref.measure());
  for (std::size_t k = 0; k < setups.size(); ++k)
    setups[k] /= (setup_refs[k] + setup_refs[k + 1]) / 2.0 / kReferenceNs;

  Report report;
  std::uint64_t attempted = 0, failed = 0;
  std::string mismatch;
  try {
    (void)run_window(*spec, *d, cpus, ref, args->seed, 9, kWarmupSeconds,
                     false);
    if (args->trace == 0) {
      const auto w = run_window(*spec, *d, cpus, ref, args->seed, 0,
                                args->seconds, false);
      end_to_end(*w, setups, report);
      // Beside the result, not in it: the host's steal share during the
      // window, which explains a run whose wall-clock figures sag.
      std::printf(
          "{\"context\": {\"steal_pct\": %.3f, \"reference_ms\": %.4f, "
          "\"unscaled\": {\"read_cpu_us\": %.5g, \"read_p50_us\": %.5g, "
          "\"write_cpu_ms\": %.5g}}}\n",
          w->steal_share() * 100.0, median_of(w->part_ref) / 1e6,
          quiet_median(*w, w->part_read_cpu, "read_cpu_us", false) / 1e3,
          quiet_median(*w, w->part_p50, "read_p50_us", false) / 1e3,
          quiet_median(*w, w->part_write_cpu, "write_cpu_ms", false,
                       kWindowParts) /
              1e6);
      attempted = w->attempted();
      failed = w->failed();
    } else {
      const auto base = run_window(*spec, *d, cpus, ref, args->seed, 1,
                                   args->seconds / 2, false);
      const auto w = run_window(*spec, *d, cpus, ref, args->seed, 2,
                                args->seconds, true);
      per_layer(*d, *base, *w, report);
      attempted = base->attempted() + w->attempted();
      failed = base->failed() + w->failed();
    }
    mismatch = gate(*d, args->seed);
  } catch (const TooFewSamples& e) {
    std::fprintf(stderr,
                 "loadgen: too few samples to report %s (need %llu beyond "
                 "the percentile); lengthen --seconds\n",
                 e.metric.c_str(),
                 static_cast<unsigned long long>(Histogram::kMinBeyond));
    return 3;
  }
  d.reset();
  std::error_code ec;
  fs::remove_all(scratch, ec);

  if (!mismatch.empty())
    std::fprintf(stderr, "loadgen: correctness gate failed: %s\n",
                 mismatch.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      mismatch.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      report.json().c_str());
  return mismatch.empty() ? 0 : 1;
}
