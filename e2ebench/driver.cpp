// End-to-end benchmark driver: DFSSSP from topology to proven table, and
// the routing service repairing under churn.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1
//            [--threads T] [--work-dir DIR]
//
// Workloads (see README.md for why each was chosen):
//   random_offline   Fig. 9 random fabrics, offline Algorithm 2 DFSSSP
//   dragonfly_scale  ~7k-switch dragonfly, offline DFSSSP (SSSP-bound)
//   deimos_churn     ServiceCore on Deimos: wire-path repairs under a fault
//                    schedule beside one closed-loop lookup client
//
// A run repeats whole passes until --seconds are used (at least two), so
// every timing is a median or percentile over many samples. One pass is:
// set the inputs up (topology generation, or the daemon's cold start), then
// the measured work. Each pass redoes identical work, so its deterministic
// counters must match the first pass exactly; the run checks that along
// with every output.
//
// The last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. The line before it ("deterministic: {...}") holds every
// deterministic value of the run; selftest.py compares those across runs.
//
// With --trace 1, even passes record spans around each call into a layer
// (spans.hpp) and odd passes run untraced; the per-layer metrics come
// from the traced passes and the tracing overhead is the ratio of the
// two kinds of pass.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/certificate.hpp"
#include "common/rng.hpp"
#include "fault/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/rusage.hpp"
#include "routing/dfsssp.hpp"
#include "routing/verify.hpp"
#include "service/core.hpp"
#include "service/digest.hpp"
#include "service/envelope.hpp"
#include "sim/congestion.hpp"
#include "spans.hpp"
#include "topology/configs.hpp"
#include "topology/generators.hpp"
#include "traffic/patterns.hpp"

using namespace dfsssp;
namespace svc = dfsssp::service;
using e2e::Span;
using e2e::SpanLog;
using e2e::now_ns;

namespace {

// ---------------------------------------------------------------- config

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t threads = 0;  // 0 = min(2, hardware threads)
  std::string work_dir = ".";
};

constexpr Layer kMaxLayers = 16;  // Fig. 9 counts demand, not an 8-VL cap
constexpr std::uint32_t kFig9Links[] = {140, 160, 180, 200, 240,
                                        280, 320, 400, 500, 700};
constexpr std::uint32_t kRandomSeedsPerLinkCount = 2;
constexpr std::uint32_t kDragonflyDests = 512;
constexpr std::uint32_t kDragonflyDeadLinks = 8;
constexpr std::uint32_t kSegmentEvents = 200;  // per daemon lifetime
constexpr std::uint32_t kSegmentsPerPass = 4;
constexpr std::size_t kChurnBatch = 4;
constexpr std::size_t kProtectedLeaves = 4;
constexpr std::uint32_t kMinPasses = 2;
// The service's vls_used is the mean, over the daemon lifetimes of the
// first kChurnVlsPasses passes (16, which every run makes), of the most
// layers any snapshot of the lifetime used. A plain maximum over all
// snapshots reads 3 or 4 depending on the seed.
constexpr std::uint32_t kChurnVlsPasses = 4;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Nanosecond latencies of sub-microsecond operations (wire lookups): one
/// bucket per nanosecond below kExactNs, raw samples above it. Memory stays
/// bounded however many lookups a pass makes.
class NsHistogram {
 public:
  void add(std::uint64_t ns) {
    if (ns < kExactNs) {
      ++counts_[ns];
    } else {
      slow_.push_back(ns);
    }
    ++n_;
  }

  void merge(const NsHistogram& o) {
    for (std::uint64_t i = 0; i < kExactNs; ++i) counts_[i] += o.counts_[i];
    slow_.insert(slow_.end(), o.slow_.begin(), o.slow_.end());
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }

  /// Mean, in microseconds, of the samples ranked in [lo*n, hi*n): a narrow
  /// quantile band. Single order statistics at nanosecond resolution tie
  /// from run to run; the band mean keeps the reading continuous.
  double band_us(double lo, double hi) const {
    if (n_ == 0) return 0.0;
    const auto n = static_cast<double>(n_);
    const auto r_lo = static_cast<std::uint64_t>(lo * n);
    const std::uint64_t r_hi =
        std::max(r_lo + 1, static_cast<std::uint64_t>(hi * n));
    std::vector<std::uint64_t> slow = slow_;
    std::sort(slow.begin(), slow.end());
    std::uint64_t rank = 0;
    double sum = 0.0;
    const auto take = [&](std::uint64_t value, std::uint64_t count) {
      const std::uint64_t a = std::max(rank, r_lo);
      const std::uint64_t b = std::min(rank + count, r_hi);
      if (a < b) sum += static_cast<double>(value) * static_cast<double>(b - a);
      rank += count;
    };
    for (std::uint64_t v = 0; v < kExactNs && rank < r_hi; ++v) {
      if (counts_[v] != 0) take(v, counts_[v]);
    }
    for (std::uint64_t v : slow) take(v, 1);
    return sum / static_cast<double>(r_hi - r_lo) * 1e-3;
  }

 private:
  static constexpr std::uint64_t kExactNs = 1 << 13;  // 8.2 us
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kExactNs);
  std::vector<std::uint64_t> slow_;
  std::uint64_t n_ = 0;
};

// -------------------------------------------------------------- counters

/// The deterministic work counters the benchmark reports, read from the
/// library's metrics registry.
const char* const kCounterNames[] = {
    "sssp/dijkstra_passes",     "sssp/relaxations",
    "sssp/heap_pops",           "cdg/edge_insertions",
    "cdg/cycle_search_steps",   "cdg/cycles_found",
    "cdg/paths_migrated",       "dfsssp/acyclicity_checks",
    "fault/acyclicity_checks",  "dfsssp/pk_reorders",
    "fault/repairs",            "fault/full_recomputes",
    "fault/destinations_rerouted", "fault/paths_migrated",
    "journal/records_appended",
    "service/snapshot_swaps",
};

using Counters = std::map<std::string, std::uint64_t>;

Counters read_counters() {
  const obs::Snapshot snap = obs::registry().snapshot();
  Counters out;
  for (const char* name : kCounterNames) {
    const auto it = snap.find(name);
    out[name] = it == snap.end() ? 0 : it->second.value;
  }
  return out;
}

void add_delta(Counters& acc, const Counters& after, const Counters& before) {
  for (const auto& [name, v] : after) acc[name] += v - before.at(name);
}

// ---------------------------------------------------------------- result

/// Per-lookup split of wire codec and handler time; taken in traced passes
/// only, because the extra clock reads slow the lookups being measured.
struct LookupSplit {
  NsHistogram envelope_ns;  // encode + decode of request and response
  NsHistogram handle_ns;    // the handler alone
};

/// Everything one pass measures. Deterministic fields go into `det`, which
/// must be identical for every pass of a run.
struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  double work_s = 0.0;  // the measured work, compared traced vs untraced
  std::vector<double> setup_s;     // one sample per pass (see below)
  std::vector<double> generate_s;  // topology generation part of set-up
  std::vector<double> route_s;     // topology to proven table
  double sssp_s = 0.0;
  double layering_s = 0.0;
  double certify_s = 0.0;
  double check_s = 0.0;
  std::vector<double> repair_ms;
  NsHistogram lookup_ns;
  LookupSplit split;
  std::vector<double> engine_ms, journal_ms;  // deimos repairs
  std::vector<std::uint64_t> lifetime_layers;  // deimos: most layers per daemon
  std::uint64_t lookups = 0;
  std::uint64_t spans = 0;
  double attributed_s = 0.0;
  std::map<std::string, double> self_s;
  Counters det;
};

struct Run {
  std::vector<Pass> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Deterministic quality outputs, fixed by the first pass(es).
  double vls_used = 0.0;
  double ebb_mean = 0.0;
  std::uint64_t topology_bytes = 0;

  // Offline workloads: one lookup daemon per network, started in the
  // first pass and kept for the run.
  std::vector<std::unique_ptr<svc::ServiceCore>> lookup_daemons;

  void fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ----------------------------------------------------------- wire lookups

/// One request through the full wire path: encode, decode on the "server",
/// ServiceCore::handle, encode the response, decode it back. With `split`,
/// the codec and handler times are recorded separately.
svc::ServiceResponse wire_call(svc::ServiceCore& core,
                               const svc::ServiceRequest& req,
                               LookupSplit* split = nullptr) {
  svc::ServiceResponse round;
  round.status = svc::Status::kErrMalformed;
  const std::uint64_t t0 = split != nullptr ? now_ns() : 0;
  svc::ServiceRequest decoded;
  if (svc::decode_request(svc::encode_request(req), decoded) !=
      svc::Status::kOk) {
    return round;
  }
  const std::uint64_t t1 = split != nullptr ? now_ns() : 0;
  const svc::ServiceResponse resp = core.handle(decoded);
  const std::uint64_t t2 = split != nullptr ? now_ns() : 0;
  if (svc::decode_response(svc::encode_response(resp), round) !=
      svc::Status::kOk) {
    round.status = svc::Status::kErrMalformed;
    return round;
  }
  if (split != nullptr) {
    const std::uint64_t t3 = now_ns();
    split->envelope_ns.add((t1 - t0) + (t3 - t2));
    split->handle_ns.add(t2 - t1);
  }
  return round;
}

/// True when a lookup answer is a legal next hop: the channel leaves the
/// source switch, or the destination hangs off the source switch itself.
bool next_hop_ok(const Network& net, const svc::ServiceRequest& req,
                 const svc::ServiceResponse& resp) {
  if (resp.status != svc::Status::kOk) return false;
  if (resp.next_channel == kInvalidChannel) {
    return net.switch_of(req.dst_terminal) == req.src_switch;
  }
  return resp.next_channel < net.num_channels() &&
         net.channel(resp.next_channel).src == req.src_switch;
}

/// A closed-loop lookup client: one request at a time through the wire
/// path, cycling through `pairs`, until `limit` lookups are done or `stop`
/// is set. Checks that every answer is a legal next hop and that snapshot
/// versions never go backwards.
struct LookupClient {
  NsHistogram latency_ns;
  LookupSplit split;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;

  void run(svc::ServiceCore& core,
           const std::vector<std::pair<NodeId, NodeId>>& pairs,
           std::uint64_t limit, bool traced, const std::atomic<bool>& stop) {
    const Network& net = core.topo().net;
    std::uint64_t last_version = 0;
    for (std::uint64_t k = 0;
         k < limit && !stop.load(std::memory_order_relaxed); ++k) {
      svc::ServiceRequest req;
      req.kind = svc::MsgKind::kLookup;
      req.request_id = k + 1;
      req.src_switch = pairs[k % pairs.size()].first;
      req.dst_terminal = pairs[k % pairs.size()].second;
      const std::uint64_t q0 = now_ns();
      const svc::ServiceResponse resp =
          wire_call(core, req, traced ? &split : nullptr);
      latency_ns.add(now_ns() - q0);
      ++attempted;
      if (!next_hop_ok(net, req, resp) ||
          resp.snapshot_version < last_version) {
        ++failed;
        if (error.empty()) {
          error = "lookup " + std::to_string(k) + ": status " +
                  svc::to_string(resp.status) + ", version " +
                  std::to_string(resp.snapshot_version) + " after " +
                  std::to_string(last_version);
        }
      }
      last_version = std::max(last_version, resp.snapshot_version);
    }
  }

  void report(Pass& p, Run& run) const {
    p.lookup_ns.merge(latency_ns);
    p.split.envelope_ns.merge(split.envelope_ns);
    p.split.handle_ns.merge(split.handle_ns);
    p.lookups += attempted;
    run.attempted += attempted;
    run.failed += failed;
    if (!error.empty()) run.fail(error);
  }
};

// ------------------------------------------------------ offline workloads

struct OfflineWorkload {
  std::string name;
  std::uint32_t setup_reps;         // topology generations per pass
  std::uint32_t ebb_patterns;       // per network, first pass only
  std::uint32_t lookups_per_net;    // wire lookups per network per pass
};

std::vector<Topology> make_offline_inputs(const std::string& workload,
                                          std::uint64_t seed,
                                          const ExecContext& exec) {
  std::vector<Topology> nets;
  if (workload == "random_offline") {
    for (std::uint32_t s = 0; s < kRandomSeedsPerLinkCount; ++s) {
      for (std::uint32_t links : kFig9Links) {
        Rng rng(mix(seed, s * 1000 + links));
        nets.push_back(make_random(128, 16, links, 16, rng));
      }
    }
  } else {
    Topology topo = make_warehouse_dragonfly(24, 12, 289, kDragonflyDests,
                                             exec);
    const FaultSchedule kills =
        FaultSchedule::link_kills(topo.net, kDragonflyDeadLinks, seed);
    for (const FaultEvent& e : kills) topo.net.set_link_up(e.channel, false);
    nets.push_back(std::move(topo));
  }
  return nets;
}

/// Seeded (source switch, destination terminal) lookup pairs.
std::vector<std::pair<NodeId, NodeId>> lookup_pairs(
    const std::vector<NodeId>& switches, const std::vector<NodeId>& terminals,
    std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs(count);
  for (auto& [s, t] : pairs) {
    s = switches[rng.next_below(switches.size())];
    t = terminals[rng.next_below(terminals.size())];
  }
  return pairs;
}

/// A daemon serving one offline network's lookups, routed by MinHop.
std::unique_ptr<svc::ServiceCore> start_lookup_daemon(const Topology& topo,
                                                      Run& run) {
  svc::ServiceCoreOptions options;
  options.engine = "minhop";
  auto daemon = std::make_unique<svc::ServiceCore>(topo, options);
  svc::ServiceRequest req;
  req.kind = svc::MsgKind::kRoute;
  req.request_id = 1;
  ++run.attempted;
  const svc::ServiceResponse resp = wire_call(*daemon, req);
  if (resp.status != svc::Status::kOk) {
    ++run.failed;
    run.fail(topo.name + ": lookup daemon route failed: " + resp.error);
  }
  return daemon;
}

void offline_pass(const OfflineWorkload& w, const Args& args,
                  const ExecContext& exec, bool first, Pass& p, Run& run,
                  SpanLog& log) {
  const DfssspRouter router(DfssspOptions{
      .max_layers = kMaxLayers,
      .heuristic = CycleHeuristic::kWeakestEdge,
      .balance = false});

  // One set-up sample per pass: the mean over setup_reps back-to-back
  // generations of every topology, a region of 0.2 s or more.
  std::vector<Topology> nets;
  const std::uint64_t g0 = now_ns();
  for (std::uint32_t rep = 0; rep < w.setup_reps; ++rep) {
    Span span(log, "topology.generate");
    nets = make_offline_inputs(w.name, args.seed, exec);
  }
  p.setup_s = p.generate_s = {static_cast<double>(now_ns() - g0) * 1e-9 /
                              w.setup_reps};
  if (first) run.lookup_daemons.resize(nets.size());

  std::uint64_t vls = 0, bytes = 0;
  double ebb_sum = 0.0, route_sum = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Topology& topo = nets[i];
    const Network& net = topo.net;
    bytes += net.memory_footprint();
    const Counters before = read_counters();
    const std::uint64_t t0 = now_ns();
    RouteResponse out;
    {
      Span span(log, "routing.route");
      out = router.route(RouteRequest(topo, kMaxLayers, exec));
    }
    ++run.attempted;
    if (!out.ok) {
      // A failed route's table is empty; it never reaches the certificate
      // code (make_certificate crashes on it, see README.md).
      ++run.failed;
      run.fail(topo.name + ": route failed: " + out.error);
      continue;
    }
    CertificateResult cert;
    CertCheckResult check;
    const std::uint64_t t1 = now_ns();
    try {
      Span span(log, "analysis.certify");
      cert = make_certificate(net, out.table, exec);
    } catch (const std::exception& e) {
      run.fail(topo.name + ": make_certificate threw: " + e.what());
    }
    const std::uint64_t t2 = now_ns();
    if (cert.ok) {
      Span span(log, "analysis.check");
      check = check_certificate(net, out.table, cert.cert);
    }
    const std::uint64_t t3 = now_ns();
    add_delta(p.det, read_counters(), before);
    if (!cert.ok || !check.ok) {
      ++run.failed;
      run.fail(topo.name + ": certificate rejected: " + check.error);
    }
    const double proven_s = static_cast<double>(t3 - t0) * 1e-9;
    route_sum += proven_s;
    p.work_s += proven_s;
    p.repair_ms.push_back(proven_s * 1e3);
    p.sssp_s += out.stats.route_seconds;
    p.layering_s += out.stats.layering_seconds;
    p.certify_s += static_cast<double>(t2 - t1) * 1e-9;
    p.check_s += static_cast<double>(t3 - t2) * 1e-9;
    p.det["analysis/deps_checked"] += check.deps_checked;
    p.det["routing/cycles_broken"] += out.stats.cycles_broken;
    p.det["routing/paths"] += out.stats.paths;
    vls += out.stats.layers_used;
    {
      Span span(log, "service.digest");
      digest = mix(digest, svc::table_digest(net, out.table));
    }

    if (first) {
      {
        Span span(log, "analysis.verify");
        const VerifyReport v = verify_routing(net, out.table, exec);
        if (v.broken != 0 || v.total_paths == 0) {
          run.fail(topo.name + ": verify_routing found " +
                   std::to_string(v.broken) + " broken paths");
        }
      }
      Span span(log, "sim.ebb");
      const RankMap map = RankMap::round_robin(
          net, static_cast<std::uint32_t>(net.num_terminals()));
      Rng rng(mix(args.seed, 0xEBB0 + i));
      ebb_sum += effective_bisection_bandwidth(net, out.table, map,
                                               w.ebb_patterns, rng, {}, exec)
                     .ebb;
    }

    // Wire-path lookups through ServiceCore::handle, on a daemon that
    // holds this network. A route request makes the daemon route with its
    // own engine; MinHop takes milliseconds where the service's DFSSSP
    // would take seconds per network, so the daemon runs MinHop and is
    // started once per run. The lookup path (snapshot load, handler,
    // table read) does not depend on the engine that filled the table.
    if (first) {
      Span span(log, "service.start");
      run.lookup_daemons[i] = start_lookup_daemon(topo, run);
    }
    svc::ServiceCore& daemon = *run.lookup_daemons[i];
    const std::vector<NodeId> switches(net.switches().begin(),
                                       net.switches().end());
    const std::vector<NodeId> terminals(net.terminals().begin(),
                                        net.terminals().end());
    const auto pairs = lookup_pairs(switches, terminals, w.lookups_per_net,
                                    mix(args.seed, 0x100C + i));
    // Served from a thread of its own, as the daemon serves lookups from
    // connection threads, so the lookups do not inherit the routing
    // thread's allocator state.
    Span span(log, "service.lookup");
    const std::uint64_t l0 = now_ns();
    LookupClient client;
    const std::atomic<bool> never_stop{false};
    std::thread server([&] {
      client.run(daemon, pairs, pairs.size(), p.traced, never_stop);
    });
    server.join();
    client.report(p, run);
    p.work_s += static_cast<double>(now_ns() - l0) * 1e-9;
  }
  p.route_s.push_back(route_sum);
  p.det["vls_used"] = vls;
  p.det["table_digest"] = digest;
  if (first) {
    run.vls_used = static_cast<double>(vls);
    run.topology_bytes = bytes;
    run.ebb_mean = ebb_sum / static_cast<double>(nets.size());
  }
}

// ---------------------------------------------------- deimos_churn

struct ChurnInputs {
  std::vector<FaultEvent> events;
  std::vector<std::pair<NodeId, NodeId>> pairs;  // never-failing endpoints
};

/// The seeded fault schedule, minus every switch event of a few seeded
/// protected leaf switches, so lookups to their terminals always have an
/// answer. Link events next to them stay; the service's partition guard
/// vetoes any that would cut a protected switch off.
ChurnInputs make_churn_inputs(std::uint64_t seed) {
  const Topology topo = make_deimos();
  const Network& net = topo.net;
  std::vector<NodeId> leaves;
  for (NodeId s : net.switches()) {
    if (net.terminals_on(s) > 0) leaves.push_back(s);
  }
  Rng rng(mix(seed, 0x1EAF));
  rng.shuffle(leaves);
  const std::set<NodeId> protected_leaves(
      leaves.begin(), leaves.begin() + std::min<std::size_t>(
                                            kProtectedLeaves, leaves.size()));

  ChurnInputs in;
  const FaultSchedule schedule = FaultSchedule::random(
      net, FaultScheduleOptions{.num_events = kSegmentEvents}, seed);
  std::set<NodeId> downed;
  for (const FaultEvent& e : schedule) {
    const bool switch_event =
        e.kind == FaultKind::kSwitchDown || e.kind == FaultKind::kSwitchUp;
    if (switch_event && protected_leaves.count(e.sw) != 0) continue;
    if (e.kind == FaultKind::kSwitchDown) downed.insert(e.sw);
    in.events.push_back(e);
  }
  std::vector<NodeId> switches, terminals;
  for (NodeId s : net.switches()) {
    if (downed.count(s) == 0) switches.push_back(s);
  }
  for (NodeId t : net.terminals()) {
    if (protected_leaves.count(net.switch_of(t)) != 0) terminals.push_back(t);
  }
  in.pairs = lookup_pairs(switches, terminals, 4096, mix(seed, 0x100C));
  return in;
}

/// Certifies, checks and verifies a published snapshot.
void prove_snapshot(const Network& net, const svc::ForwardingSnapshot& snap,
                      const ExecContext& exec, Pass& p, Run& run,
                      SpanLog& log, const char* what) {
  const std::uint64_t t0 = now_ns();
  CertificateResult cert;
  try {
    Span span(log, "analysis.certify");
    cert = make_certificate(net, snap.table, exec);
  } catch (const std::exception& e) {
    run.fail(std::string(what) + ": make_certificate threw: " + e.what());
  }
  const std::uint64_t t1 = now_ns();
  CertCheckResult check;
  if (cert.ok) {
    Span span(log, "analysis.check");
    check = check_certificate(net, snap.table, cert.cert);
  }
  const std::uint64_t t2 = now_ns();
  if (!check.ok) run.fail(std::string(what) + ": certificate rejected");
  p.certify_s += static_cast<double>(t1 - t0) * 1e-9;
  p.check_s += static_cast<double>(t2 - t1) * 1e-9;
  p.det["analysis/deps_checked"] += check.deps_checked;
  {
    Span span(log, "analysis.verify");
    const VerifyReport v = verify_routing(net, snap.table, exec);
    if (v.broken != 0 || v.total_paths == 0) {
      run.fail(std::string(what) + ": verify_routing found " +
               std::to_string(v.broken) + " broken paths");
    }
  }
}

/// One daemon lifetime: cold start, the segment's fault batches and
/// repairs beside the lookup client, then proof of the final generation.
void churn_segment(const ChurnInputs& in, const Args& args,
                   const ExecContext& exec, bool first, Pass& p, Run& run,
                   SpanLog& main_log, SpanLog& client_log) {
  svc::ServiceCoreOptions options;
  options.engine = "dfsssp";
  // Journal on, ring only: a file sink put the overlay file system's write
  // latency into every publish.
  options.journal = true;
  options.journal_config = "deimos";

  // Daemon cold start: topology, core, first route + publish + journal.
  const std::uint64_t s0 = now_ns();
  std::unique_ptr<svc::ServiceCore> core;
  {
    Span span(main_log, "service.start");
    Topology topo;
    {
      Span gen(main_log, "topology.generate");
      topo = make_deimos();
    }
    p.generate_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    {
      Span construct(main_log, "service.construct");
      core = std::make_unique<svc::ServiceCore>(std::move(topo), options);
    }
  }
  svc::ServiceRequest route_req;
  route_req.kind = svc::MsgKind::kRoute;
  route_req.request_id = 1;
  svc::ServiceResponse routed;
  {
    Span span(main_log, "service.route");
    routed = wire_call(*core, route_req);
  }
  const std::uint64_t s2 = now_ns();
  p.setup_s.push_back(static_cast<double>(s2 - s0) * 1e-9);
  ++run.attempted;
  if (routed.status != svc::Status::kOk) {
    ++run.failed;
    run.fail("initial route failed: " + routed.error);
    return;
  }
  const Network& net = core->topo().net;
  std::uint64_t vls = routed.layers;
  const auto initial = core->snapshot();
  prove_snapshot(net, *initial, exec, p, run, main_log, "initial snapshot");

  if (first) {
    run.topology_bytes = net.memory_footprint();
    Span span(main_log, "sim.ebb");
    const RankMap map = RankMap::round_robin(
        net, static_cast<std::uint32_t>(net.num_terminals()));
    Rng rng(mix(args.seed, 0xEBB0));
    run.ebb_mean = effective_bisection_bandwidth(net, initial->table, map, 32,
                                                 rng, {}, exec)
                       .ebb;
  }

  // Churn phase: the driver feeds fault batches and repairs while the
  // client looks up.
  std::atomic<bool> stop{false};
  LookupClient client;
  std::thread client_thread([&] {
    Span span(client_log, "service.lookup_client");
    client.run(*core, in.pairs, std::numeric_limits<std::uint64_t>::max(),
               p.traced, stop);
  });
  const std::uint64_t c0 = now_ns();
  std::uint64_t request_id = 2;
  for (std::size_t i = 0; i < in.events.size(); i += kChurnBatch) {
    const std::size_t count = std::min(kChurnBatch, in.events.size() - i);
    {
      Span span(main_log, "service.fault_events");
      for (std::size_t j = 0; j < count; ++j) {
        const FaultEvent& e = in.events[i + j];
        svc::ServiceRequest req;
        req.kind = svc::MsgKind::kFaultEvent;
        req.request_id = request_id++;
        req.fault_kind = static_cast<std::uint8_t>(e.kind);
        req.channel = e.channel;
        req.sw = e.sw;
        ++run.attempted;
        if (wire_call(*core, req).status != svc::Status::kOk) {
          ++run.failed;
          run.fail("fault event rejected");
        }
      }
    }
    svc::ServiceRequest repair_req;
    repair_req.kind = svc::MsgKind::kRepair;
    repair_req.request_id = request_id++;
    svc::ServiceResponse resp;
    const std::uint64_t r0 = now_ns();
    {
      Span span(main_log, "service.repair");
      resp = wire_call(*core, repair_req);
    }
    const double wall_ms = static_cast<double>(now_ns() - r0) * 1e-6;
    ++run.attempted;
    ++p.det["service/repair_requests"];
    if (resp.status != svc::Status::kOk) {
      ++run.failed;
      run.fail("repair failed: " + resp.error);
      continue;
    }
    const double engine_ms = static_cast<double>(resp.elapsed_ns) * 1e-6;
    p.repair_ms.push_back(wall_ms);
    p.engine_ms.push_back(engine_ms);
    p.journal_ms.push_back(wall_ms - engine_ms);
    vls = std::max<std::uint64_t>(vls, resp.layers);
    p.det["service/events_coalesced"] += resp.events_coalesced;
    if (!resp.incremental) {
      // A fallback routes the whole fabric anew, publishes, and the journal
      // builds the generation's certificate: the service's route_s. (Timing
      // the daemon's own route requests read bimodally from run to run.)
      ++p.det["service/fallbacks"];
      p.route_s.push_back(wall_ms * 1e-3);
    }
  }
  p.work_s += static_cast<double>(now_ns() - c0) * 1e-9;
  stop.store(true, std::memory_order_relaxed);
  client_thread.join();
  client.report(p, run);

  // The final generation must be proven too.
  const auto final_snap = core->snapshot();
  prove_snapshot(net, *final_snap, exec, p, run, main_log, "final snapshot");

  const obs::journal::Journal* journal = core->journal();
  if (journal == nullptr) {
    run.fail("journal missing");
  } else {
    std::vector<obs::journal::Record> records;
    journal->tail(1, std::numeric_limits<std::uint32_t>::max(),
                  static_cast<std::uint8_t>(obs::journal::EventKind::kVeto),
                  records);
    for (const obs::journal::Record& r : records) {
      p.det["fault/events_vetoed"] += r.count;
    }
  }
  p.lifetime_layers.push_back(vls);
  p.det["table_digest"] =
      mix(p.det["table_digest"], svc::table_digest(net, final_snap->table));
}

/// One pass: kSegmentsPerPass daemon lifetimes, each on its own seeded
/// schedule. Pass k always uses the same schedules, so a run's sample is
/// a prefix of any longer run's; pooling many short schedules keeps the
/// repair percentiles from hanging on one schedule's mix of repairs.
void churn_pass(const Args& args, const ExecContext& exec,
                std::uint32_t index, Pass& p, Run& run, SpanLog& main_log,
                SpanLog& client_log) {
  const Counters before = read_counters();
  for (std::uint32_t j = 0; j < kSegmentsPerPass; ++j) {
    ChurnInputs in;
    {
      Span span(main_log, "fault.schedule");
      in = make_churn_inputs(mix(args.seed, index * kSegmentsPerPass + j));
    }
    churn_segment(in, args, exec, index == 0 && j == 0, p, run, main_log,
                  client_log);
  }
  add_delta(p.det, read_counters(), before);
  // One set-up sample per pass: the mean of its cold starts, so a sample
  // covers about 0.2 s of set-up rather than one 50 ms cold start.
  const double cold_starts = static_cast<double>(p.setup_s.size());
  double sum = 0.0;
  for (double v : p.setup_s) sum += v;
  p.setup_s = {sum / std::max(cold_starts, 1.0)};
}

// ------------------------------------------------------------- reporting

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-pass medians over the passes that match `traced` (all when the run
/// has only one kind).
template <typename F>
double pass_median(const std::vector<Pass>& passes, F&& get,
                   const bool* traced = nullptr) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (traced == nullptr || p.traced == *traced) v.push_back(get(p));
  }
  return median(v);
}

template <typename F>
std::vector<double> pooled(const std::vector<Pass>& passes, F&& get,
                           const bool* traced = nullptr) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (traced == nullptr || p.traced == *traced) {
      const std::vector<double>& s = get(p);
      v.insert(v.end(), s.begin(), s.end());
    }
  }
  return v;
}

template <typename F>
NsHistogram merged(const std::vector<Pass>& passes, F&& get, bool traced) {
  NsHistogram h;
  for (const Pass& p : passes) {
    if (p.traced == traced) h.merge(get(p));
  }
  return h;
}

const char* const kSpanNames[] = {
    "topology.generate", "routing.route",     "analysis.certify",
    "analysis.check",    "analysis.verify",   "sim.ebb",
    "service.digest",    "service.lookup",    "service.start",
    "service.construct", "service.route",     "service.fault_events",
    "service.repair",    "fault.schedule",
};

std::vector<Metric> end_to_end(const Run& run) {
  const auto& ps = run.passes;
  const bool untraced = false;
  const bool* sel = &untraced;
  const auto repairs = pooled(ps, [](const Pass& p) -> auto& {
    return p.repair_ms;
  }, sel);
  const NsHistogram lookups = merged(
      ps, [](const Pass& p) -> auto& { return p.lookup_ns; }, false);
  return {
      {"setup_s",
       median(pooled(ps, [](const Pass& p) -> auto& { return p.setup_s; },
                     sel)),
       "s"},
      {"route_s",
       median(pooled(ps, [](const Pass& p) -> auto& { return p.route_s; },
                     sel)),
       "s"},
      {"repair_p50_ms", percentile(repairs, 0.50), "ms"},
      {"repair_p95_ms", percentile(repairs, 0.95), "ms"},
      {"lookup_p99_us", lookups.band_us(0.985, 0.995), "us"},
      {"vls_used", run.vls_used, "count"},
      {"ebb_mean", run.ebb_mean, "ratio"},
      {"peak_rss_mb", static_cast<double>(obs::peak_rss_bytes()) / 1e6, "MB"},
      {"ok_ratio",
       static_cast<double>(run.attempted - run.failed) /
           static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)),
       "ratio"},
  };
}

std::vector<Metric> per_layer(const Run& run) {
  const auto& ps = run.passes;
  const bool traced = true, untraced = false;
  const bool* t = &traced;
  const Counters& c = ps.front().det;
  const auto count = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto pct = [](double num, double den) {
    return den > 0.0 ? 100.0 * num / den : 0.0;
  };
  const double work_traced =
      pass_median(ps, [](const Pass& p) { return p.work_s; }, &traced);
  const double work_plain =
      pass_median(ps, [](const Pass& p) { return p.work_s; }, &untraced);
  double attributed = 0.0, wall = 0.0;
  for (const Pass& p : ps) {
    if (p.traced) {
      attributed += p.attributed_s;
      wall += p.wall_s;
    }
  }
  std::vector<Metric> m = {
      {"topology.generate_s",
       median(pooled(ps, [](const Pass& p) -> auto& { return p.generate_s; },
                     t)),
       "s"},
      {"topology.bytes", static_cast<double>(run.topology_bytes), "bytes"},
      {"routing.sssp_s",
       pass_median(ps, [](const Pass& p) { return p.sssp_s; }, t), "s"},
      {"sssp.dijkstra_passes", count("sssp/dijkstra_passes"), "count"},
      {"sssp.relaxations", count("sssp/relaxations"), "count"},
      {"sssp.heap_pops", count("sssp/heap_pops"), "count"},
      {"cdg.layering_s",
       pass_median(ps, [](const Pass& p) { return p.layering_s; }, t), "s"},
      {"cdg.edge_insertions", count("cdg/edge_insertions"), "count"},
      {"cdg.cycle_search_steps", count("cdg/cycle_search_steps"), "count"},
      {"cdg.cycles_found", count("cdg/cycles_found"), "count"},
      {"cdg.paths_migrated", count("cdg/paths_migrated"), "count"},
      {"routing.cycles_broken", count("routing/cycles_broken"), "count"},
      {"pk.acyclicity_checks",
       count("dfsssp/acyclicity_checks") + count("fault/acyclicity_checks"),
       "count"},
      {"pk.reorders", count("dfsssp/pk_reorders"), "count"},
      {"analysis.certify_s",
       pass_median(ps, [](const Pass& p) { return p.certify_s; }, t), "s"},
      {"analysis.check_s",
       pass_median(ps, [](const Pass& p) { return p.check_s; }, t), "s"},
      {"analysis.deps_checked", count("analysis/deps_checked"), "count"},
      {"service.engine_ms",
       percentile(pooled(ps, [](const Pass& p) -> auto& {
         return p.engine_ms;
       }, t), 0.5), "ms"},
      {"service.journal_ms",
       percentile(pooled(ps, [](const Pass& p) -> auto& {
         return p.journal_ms;
       }, t), 0.5), "ms"},
      {"fault.full_recomputes", count("fault/full_recomputes"), "count"},
      {"fault.destinations_rerouted", count("fault/destinations_rerouted"),
       "count"},
      {"fault.paths_migrated", count("fault/paths_migrated"), "count"},
      {"fault.events_vetoed", count("fault/events_vetoed"), "count"},
      {"journal.records", count("journal/records_appended"), "count"},
      {"journal.bytes",
       count("journal/records_appended") * obs::journal::kRecordBytes,
       "bytes"},
      {"service.envelope_us",
       merged(ps, [](const Pass& p) -> auto& { return p.split.envelope_ns; },
              true)
           .band_us(0.495, 0.505),
       "us"},
      // The lookup median flips between modes from run to run on a shared
      // machine (up to 1.7x between adjacent runs); it is reported here,
      // from the untraced passes, rather than gated end to end.
      {"service.lookup_p50_us",
       merged(ps, [](const Pass& p) -> auto& { return p.lookup_ns; }, false)
           .band_us(0.495, 0.505),
       "us"},
      {"service.lookup_handle_us",
       merged(ps, [](const Pass& p) -> auto& { return p.split.handle_ns; },
              true)
           .band_us(0.495, 0.505),
       "us"},
      {"service.lookups",
       pass_median(ps, [](const Pass& p) {
         return static_cast<double>(p.lookups);
       }, t), "count"},
      {"service.snapshot_swaps", count("service/snapshot_swaps"), "count"},
      {"trace.attributed_pct", pct(attributed, wall), "%"},
      {"trace.overhead_pct", pct(work_traced - work_plain, work_plain), "%"},
      {"trace.spans",
       pass_median(ps, [](const Pass& p) {
         return static_cast<double>(p.spans);
       }, t), "count"},
  };
  for (const char* span : kSpanNames) {
    const std::string name = span;
    m.push_back({"self." + name + "_s",
                 pass_median(ps, [&](const Pass& p) {
                   const auto it = p.self_s.find(name);
                   return it == p.self_s.end() ? 0.0 : it->second;
                 }, t),
                 "s"});
  }
  return m;
}

void print_result(const Run& run, const std::vector<Metric>& metrics,
                  bool correct) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void write_trace(const std::string& path, const SpanLog& a, const SpanLog& b) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  a.write_events(out, first);
  b.write_events(out, first);
  out << "\n]}\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--threads") {
      a.threads = static_cast<std::uint32_t>(std::strtoul(v.c_str(), &end, 10));
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload random_offline|dragonfly_scale|"
                 "deimos_churn --seed N --seconds S --trace 0|1 "
                 "[--threads T] [--work-dir DIR]\n");
    return 2;
  }
  const bool churn = args.workload == "deimos_churn";
  const OfflineWorkload* offline = nullptr;
  static const OfflineWorkload kOffline[] = {
      {"random_offline", 40, 8, 16384},
      {"dragonfly_scale", 3, 32, 65536},
  };
  for (const OfflineWorkload& w : kOffline) {
    if (w.name == args.workload) offline = &w;
  }
  if (offline == nullptr && !churn) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads =
      args.threads != 0 ? args.threads : std::min(2u, hw);
  const ExecContext exec(threads);
  std::printf("workload %s seed %llu threads %u trace %d\n",
              args.workload.c_str(), (unsigned long long)args.seed, threads,
              args.trace ? 1 : 0);

  Run run;
  SpanLog main_log(1), client_log(2);

  const std::uint64_t start = now_ns();
  for (std::uint32_t i = 0;; ++i) {
    const double used = static_cast<double>(now_ns() - start) * 1e-9;
    if (i >= (churn ? kChurnVlsPasses : kMinPasses)) {
      const double typical =
          pass_median(run.passes, [](const Pass& p) { return p.wall_s; });
      if (used + typical > args.seconds) break;
    }
    Pass& p = run.passes.emplace_back();
    p.traced = args.trace && i % 2 == 0;
    main_log.set_on(p.traced);
    client_log.set_on(p.traced);
    const std::size_t main_before = main_log.recs().size();
    const std::size_t client_before = client_log.recs().size();
    const std::uint64_t t0 = now_ns();
    if (churn) {
      churn_pass(args, exec, i, p, run, main_log, client_log);
    } else {
      offline_pass(*offline, args, exec, i == 0, p, run, main_log);
    }
    const std::uint64_t t1 = now_ns();
    p.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    if (p.traced) {
      p.attributed_s =
          static_cast<double>(main_log.top_level_ns(t0, t1)) * 1e-9;
      p.spans = main_log.recs().size() - main_before +
                client_log.recs().size() - client_before;
      for (std::size_t r = main_before; r < main_log.recs().size(); ++r) {
        const SpanLog::Rec& rec = main_log.recs()[r];
        p.self_s[rec.name] +=
            static_cast<double>(rec.end_ns - rec.start_ns - rec.child_ns) *
            1e-9;
      }
    }
    if (!run.errors.empty()) break;
  }

  if (churn) {
    std::vector<double> layers;
    for (std::size_t i = 0; i < kChurnVlsPasses && i < run.passes.size();
         ++i) {
      for (std::uint64_t l : run.passes[i].lifetime_layers) {
        layers.push_back(static_cast<double>(l));
      }
    }
    double sum = 0.0;
    for (double l : layers) sum += l;
    run.vls_used = layers.empty() ? 0.0 : sum / layers.size();
  }

  // Every offline pass did identical work: its deterministic values must
  // match. (Churn passes each run their own schedules.)
  for (std::size_t i = 1; !churn && i < run.passes.size(); ++i) {
    if (run.passes[i].det != run.passes[0].det) {
      run.fail("pass " + std::to_string(i) +
               " counters differ from pass 0 (nondeterminism)");
    }
  }

  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const Pass& p = run.passes[i];
    std::printf("pass %zu%s: wall %.3f s, setup %.4f s, route %.4f s, "
                "repair p50 %.3f ms of %zu, %zu lookups\n",
                i, p.traced ? " (traced)" : "", p.wall_s, median(p.setup_s),
                median(p.route_s), percentile(p.repair_ms, 0.5),
                p.repair_ms.size(),
                static_cast<std::size_t>(p.lookup_ns.count()));
  }
  for (const std::string& e : run.errors) {
    std::printf("ERROR: %s\n", e.c_str());
  }

  std::string det = "{\"vls_used\": " + json_number(run.vls_used) +
                    ", \"ebb_mean\": " + json_number(run.ebb_mean) +
                    ", \"passes\": " + std::to_string(run.passes.size());
  for (const auto& [name, v] : run.passes.front().det) {
    if (name == "vls_used") continue;  // the run-level value above
    det += ", \"" + name + "\": " + std::to_string(v);
  }
  std::printf("deterministic: %s}\n", det.c_str());

  if (args.trace) {
    write_trace(args.work_dir + "/trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json",
                main_log, client_log);
  }
  const bool correct = run.errors.empty() && run.failed == 0;
  const std::vector<Metric> metrics =
      args.trace ? per_layer(run) : end_to_end(run);
  if (!args.trace) {
    for (const Metric& m : metrics) {
      std::printf("  %-16s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  print_result(run, metrics, correct);
  return 0;
}
