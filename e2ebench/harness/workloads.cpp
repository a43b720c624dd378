#include "harness/workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "core/experiment.hpp"
#include "flowsim/online.hpp"
#include "perf/profiler.hpp"
#include "sched/factory.hpp"
#include "srv/feed.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"
#include "switchsim/arrivals.hpp"
#include "topo/maxmin.hpp"
#include "workload/generators.hpp"

namespace e2ebench {

namespace {

using namespace basrpt;

// ---- Work per unit. Changing any of these redefines a workload: bump
// ---- its definition version and re-pin its digest. Each unit takes a
// ---- few wall seconds, long enough to average over the second-scale
// ---- speed swings of a shared host rather than land inside one.
constexpr double kPaperHorizonSec = 0.05;
constexpr switchsim::Slot kSlottedSlots = 60000;
constexpr double kServeFeedSec = 180.0;

// Pinned output digests for kDefaultSeed (see digest_* below).
constexpr std::uint64_t kPinnedPaper144 = 0x65248de97fc113d1;
constexpr std::uint64_t kPinnedSlotted = 0x449b0a68acd9b4a2;
constexpr std::uint64_t kPinnedServe = 0x332c7f1fff35e494;

/// Scheduler decorator sampling: every kCaptureStride-th non-empty
/// decision's serving set is kept, up to kMaxCapturedSets.
constexpr std::uint64_t kCaptureStride = 16;
constexpr std::size_t kMaxCapturedSets = 4096;

/// The paper's V, in its 144-host units (core::scale_v).
constexpr double kPaperV = 2500.0;

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string fabric_def(const topo::FabricConfig& f) {
  return std::to_string(f.racks) + "x" + std::to_string(f.hosts_per_rack) +
         " hosts, " + std::to_string(f.cores) + " cores, host link " +
         fmt(f.host_link.bits_per_sec / 1e6) + " Mb/s, core link " +
         fmt(f.core_link.bits_per_sec / 1e6) + " Mb/s, " +
         (f.routing == topo::RoutingMode::kFluidSpray ? "fluid spray"
                                                      : "ECMP hash");
}

/// The unit's timed region. In a traced unit it is also the profiler
/// window and the root "unit" span, and it counts allocations.
class TimedRegion {
 public:
  explicit TimedRegion(Probes* probes) : probes_(probes) {
    if (probes_ != nullptr) {
      probes_->spans.open(SpanName::kUnit);
      perf::set_profiling(true);
      alloc0_ = perf::alloc_total();
      perf::Profiler::global().begin_window();
    }
    t0_ = now_ns();
  }
  std::uint64_t stop() {
    const std::uint64_t wall = now_ns() - t0_;
    if (probes_ != nullptr) {
      perf::Profiler::global().end_window();
      probes_->allocs += perf::alloc_total() - alloc0_;
      perf::set_profiling(false);
      probes_->spans.close();
    }
    return wall;
  }

 private:
  Probes* probes_;
  std::uint64_t t0_ = 0;
  std::uint64_t alloc0_ = 0;
};

/// Forwarding sched::Scheduler decorator: times every decide_into as a
/// span, tallies candidates and selections, and samples serving sets
/// (src, dst, flow id) for the post-run route + solve replay.
class ProbedScheduler final : public sched::Scheduler {
 public:
  ProbedScheduler(sched::SchedulerPtr inner, Probes& probes,
                  bool capture_sets)
      : inner_(std::move(inner)),
        probes_(probes),
        capture_sets_(capture_sets) {}

  using Scheduler::decide_into;
  std::string name() const override { return inner_->name(); }
  bool needs_arrival_lane() const override {
    return inner_->needs_arrival_lane();
  }
  std::vector<std::uint64_t> checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state) override {
    inner_->restore_checkpoint_state(state);
  }

  void decide_into(sched::PortId n_ports,
                   const sched::CandidateView& candidates,
                   sched::Decision& out) override {
    probes_.spans.open(SpanName::kSchedDecide);
    inner_->decide_into(n_ports, candidates, out);
    probes_.decide_ns.add(probes_.spans.close());
    ++probes_.decides;
    probes_.candidates_sum += candidates.size();
    probes_.selected_sum += out.selected.size();
    if (!out.selected.empty()) {
      if (capture_sets_ && probes_.nonempty_decides % kCaptureStride == 0 &&
          probes_.serving_sets.size() < kMaxCapturedSets) {
        capture(candidates, out);
      }
      ++probes_.nonempty_decides;
    }
  }

 private:
  void capture(const sched::CandidateView& c, const sched::Decision& d) {
    sorted_ = d.selected;
    std::sort(sorted_.begin(), sorted_.end());
    std::vector<ServedFlow> set;
    set.reserve(sorted_.size());
    auto take = [&](const sched::FlowId* lane) {
      for (std::size_t k = 0; k < c.size(); ++k) {
        if (std::binary_search(sorted_.begin(), sorted_.end(), lane[k])) {
          set.push_back({c.ingress()[k], c.egress()[k],
                         static_cast<std::uint64_t>(lane[k])});
        }
      }
    };
    take(c.shortest_flow());
    if (set.size() < sorted_.size() && c.has_arrival_lane()) {
      set.clear();  // a FIFO-like policy: selections come from this lane
      take(c.oldest_flow());
    }
    probes_.serving_sets.push_back(std::move(set));
  }

  sched::SchedulerPtr inner_;
  Probes& probes_;
  bool capture_sets_;
  std::vector<sched::FlowId> sorted_;
};

/// The scheduler for `spec`, wrapped in the decorator when traced.
/// Serving sets are captured only where a fabric replay will use them.
sched::SchedulerPtr scheduler_for(const sched::SchedulerSpec& spec,
                                  Probes* probes, bool capture_sets) {
  sched::SchedulerPtr s = sched::make_scheduler(spec);
  if (probes != nullptr) {
    s = std::make_unique<ProbedScheduler>(std::move(s), *probes,
                                          capture_sets);
  }
  return s;
}

/// Forwarding workload::TrafficSource decorator. Timed units stamp the
/// wall clock per admitted arrival (the per-record service time is the
/// gap between successive stamps); traced units open a span per call.
class ProbedTraffic final : public workload::TrafficSource {
 public:
  ProbedTraffic(workload::TrafficSource& inner, SimTime horizon,
                LogHistogram& record_ns, Probes* probes)
      : inner_(inner),
        horizon_(horizon),
        record_ns_(record_ns),
        probes_(probes),
        last_ns_(now_ns()) {}

  std::optional<workload::FlowArrival> next() override {
    std::optional<workload::FlowArrival> a;
    {
      const ScopedSpan span(probes_ == nullptr ? nullptr : &probes_->spans,
                            SpanName::kTrafficNext);
      a = inner_.next();
    }
    if (a && a->time <= horizon_) {
      ++records_;
      if (probes_ != nullptr) {
        ++probes_->arrivals;
      } else {
        const std::uint64_t t = now_ns();
        record_ns_.add(t - last_ns_);
        last_ns_ = t;
      }
    }
    return a;
  }
  std::int64_t records() const { return records_; }

 private:
  workload::TrafficSource& inner_;
  SimTime horizon_;
  LogHistogram& record_ns_;
  Probes* probes_;
  std::uint64_t last_ns_;
  std::int64_t records_ = 0;
};

void digest_series(Digest& d, const stats::TimeSeries& s) {
  d.add_u64(s.size());
  for (const auto& p : s.points()) {
    d.add_f64(p.t).add_f64(p.value);
  }
}

void digest_fct(Digest& d, const stats::FctAggregator& fct) {
  for (const auto cls : {stats::FlowClass::kQuery,
                         stats::FlowClass::kBackground}) {
    const stats::FctSummary s = fct.summary(cls);
    d.add_i64(s.completed)
        .add_f64(s.mean_seconds)
        .add_f64(s.p99_seconds)
        .add_f64(s.max_seconds)
        .add_f64(s.mean_slowdown)
        .add_f64(s.p99_slowdown);
  }
}

void digest_moments(Digest& d, const stats::StreamingMoments& m) {
  d.add_i64(m.count()).add_f64(m.sum()).add_f64(m.mean()).add_f64(
      m.variance());
}

// ------------------------------------------------------------ paper144

class Paper144 final : public Workload {
 public:
  explicit Paper144(std::uint64_t seed) : config_(paper144_config(seed)) {}

  std::string definition() const override {
    return "{\"workload\":\"paper144\",\"version\":1,"
           "\"entry\":\"core::run_experiment composition (make_scheduler, "
           "workload::paper_mix, flowsim::run_flow_sim)\","
           "\"fabric\":\"topo::paper_fabric() " + fabric_def(config_.fabric) +
           "\",\"scheduler\":\"" + config_.scheduler.to_string() + "\","
           "\"v_paper\":" + fmt(kPaperV) + ",\"v\":" +
           fmt(config_.scheduler.v) +
           ",\"load\":" + fmt(config_.load) +
           ",\"mix\":\"paper_mix query_share=" + fmt(config_.query_share) +
           " cv2=" + fmt(config_.burstiness_cv2) +
           " governor_headroom=" + fmt(config_.governor_headroom) + "\"" +
           ",\"horizon_s\":" + fmt(config_.horizon.seconds) +
           ",\"sample_every_s\":" + fmt(config_.sample_every.seconds) +
           ",\"seed\":" + std::to_string(config_.seed) +
           ",\"record\":\"one admitted flow arrival\"}";
  }
  std::uint64_t pinned_digest() const override { return kPinnedPaper144; }
  const topo::FabricConfig* fabric() const override {
    return &config_.fabric;
  }

  void setup() override {
    // What a run builds before its first event: the scheduler, the
    // traffic generators and the simulator (fabric, VOQ matrix,
    // candidate cache, calendar) — the same constructor run_flow_sim
    // uses.
    sched::SchedulerPtr s = sched::make_scheduler(config_.scheduler);
    workload::TrafficSourcePtr traffic = experiment_traffic(config_);
    const flowsim::FlowSimConfig sim_config = experiment_sim_config(config_);
    flowsim::OnlineFlowSim sim(sim_config, *s);
  }

  UnitOutcome run_unit(LogHistogram& record_ns, Probes* probes) override {
    TimedRegion region(probes);
    sched::SchedulerPtr s = scheduler_for(config_.scheduler, probes, true);
    workload::TrafficSourcePtr traffic = experiment_traffic(config_);
    ProbedTraffic probed(*traffic, config_.horizon, record_ns, probes);
    const flowsim::FlowSimResult r = flowsim::run_flow_sim(
        experiment_sim_config(config_), *s, probed);
    UnitOutcome out;
    out.wall_ns = region.stop();
    out.digest = digest_flowsim(r);
    out.records = probed.records();
    out.decisions = r.scheduler_invocations;
    std::ostringstream err;
    if (r.flows_arrived != r.flows_completed + r.flows_left) {
      err << "flows: arrived " << r.flows_arrived << " != completed "
          << r.flows_completed << " + left " << r.flows_left << "; ";
    }
    if (r.bytes_arrived.count != r.delivered.count + r.bytes_left.count) {
      err << "bytes: arrived " << r.bytes_arrived.count << " != delivered "
          << r.delivered.count << " + left " << r.bytes_left.count << "; ";
    }
    if (r.flows_arrived != probed.records()) {
      err << "flows: simulator admitted " << r.flows_arrived
          << " but the source handed out " << probed.records() << "; ";
    }
    out.ledger_error = err.str();
    return out;
  }

 private:
  core::ExperimentConfig config_;
};

// ------------------------------------------------------ slotted32-srpt

class Slotted32 final : public Workload {
 public:
  explicit Slotted32(std::uint64_t seed) : seed_(seed) {
    config_.n_ports = 32;
    config_.horizon = kSlottedSlots;
  }

  std::string definition() const override {
    const switchsim::SizeMix mix;
    return "{\"workload\":\"slotted32-srpt\",\"version\":1,"
           "\"entry\":\"switchsim::run_slotted\","
           "\"ports\":" + std::to_string(config_.n_ports) +
           ",\"scheduler\":\"" + spec_.to_string() + "\","
           "\"arrivals\":\"bernoulli_arrivals(uniform_rates(32, " +
           fmt(kLoad) + "), SizeMix{small=" + std::to_string(mix.small) +
           ",large=" + std::to_string(mix.large) + ",p_small=" +
           fmt(mix.p_small) + "})\"" +
           ",\"slots\":" + std::to_string(config_.horizon) +
           ",\"sample_every\":" + std::to_string(config_.sample_every) +
           ",\"decisions_per_slot\":1,\"seed\":" + std::to_string(seed_) +
           ",\"record\":\"one flow arrival\"}";
  }
  std::uint64_t pinned_digest() const override { return kPinnedSlotted; }
  const topo::FabricConfig* fabric() const override { return nullptr; }

  void setup() override {
    // A one-slot run: scheduler, arrival process, and the simulator's
    // VOQ matrix, candidate cache and recorders, then one decision.
    switchsim::SlottedConfig one = config_;
    one.horizon = 1;
    sched::SchedulerPtr s = sched::make_scheduler(spec_);
    const switchsim::ArrivalStream stream = switchsim::bernoulli_arrivals(
        switchsim::uniform_rates(config_.n_ports, kLoad),
        switchsim::SizeMix{}, one.horizon, Rng(seed_));
    switchsim::run_slotted(one, *s, stream);
  }

  UnitOutcome run_unit(LogHistogram& record_ns, Probes* probes) override {
    std::int64_t flows = 0;
    std::int64_t packets = 0;
    std::uint64_t last = 0;
    const switchsim::Slot horizon = config_.horizon;
    TimedRegion region(probes);
    sched::SchedulerPtr s = scheduler_for(spec_, probes, false);
    const switchsim::ArrivalStream inner = switchsim::bernoulli_arrivals(
        switchsim::uniform_rates(config_.n_ports, kLoad),
        switchsim::SizeMix{}, horizon, Rng(seed_));
    last = now_ns();
    // Forwarding ArrivalStream: stamps admitted arrivals (timed) or
    // opens a span per pull (traced).
    const switchsim::ArrivalStream stream =
        [&]() -> std::optional<switchsim::SlottedArrival> {
      std::optional<switchsim::SlottedArrival> a;
      {
        const ScopedSpan span(probes == nullptr ? nullptr : &probes->spans,
                              SpanName::kArrivalPull);
        a = inner();
      }
      if (a && a->slot < horizon) {
        ++flows;
        packets += a->size;
        if (probes == nullptr) {
          const std::uint64_t t = now_ns();
          record_ns.add(t - last);
          last = t;
        }
      }
      return a;
    };
    const switchsim::SlottedResult r = switchsim::run_slotted(config_, *s,
                                                              stream);
    UnitOutcome out;
    out.wall_ns = region.stop();
    if (probes != nullptr) {
      probes->slots += static_cast<std::uint64_t>(r.horizon);
    }
    Digest d;
    d.add_i64(r.delivered_packets)
        .add_i64(r.left_packets)
        .add_i64(r.left_flows)
        .add_u64(r.scheduler_invocations);
    digest_moments(d, r.penalty);
    digest_moments(d, r.backlog_packets);
    digest_fct(d, r.fct);
    digest_series(d, r.backlog.total());
    digest_series(d, r.backlog.watched_voq());
    out.digest = d.value();
    out.records = flows;
    out.decisions = r.scheduler_invocations;
    std::ostringstream err;
    if (packets != r.delivered_packets + r.left_packets) {
      err << "packets: arrived " << packets << " != delivered "
          << r.delivered_packets << " + left " << r.left_packets << "; ";
    }
    if (flows != r.fct.completed_total() + r.left_flows) {
      err << "flows: arrived " << flows << " != completed "
          << r.fct.completed_total() << " + left " << r.left_flows << "; ";
    }
    out.ledger_error = err.str();
    return out;
  }

 private:
  static constexpr double kLoad = 0.9;
  std::uint64_t seed_;
  switchsim::SlottedConfig config_;
  sched::SchedulerSpec spec_ = sched::SchedulerSpec::srpt();
};

// -------------------------------------------------------------- serve24

/// The benchmark-owned srv::RecordSource over a FeedReader. It stamps
/// the wall clock at every notify_decision (per-record service time is
/// the gap between successive decisions), keeps the admission ledger,
/// and in traced units opens a span around every feed parse.
class ProbedSource final : public srv::RecordSource {
 public:
  ProbedSource(srv::FeedReader& reader,
               const std::vector<srv::FeedRecord>& records,
               LogHistogram& record_ns, Probes* probes)
      : reader_(reader),
        records_(records),
        record_ns_(record_ns),
        probes_(probes),
        last_ns_(now_ns()) {}

  std::optional<srv::FeedRecord> next(bool may_block) override {
    if (probes_ == nullptr) {
      return reader_.next(may_block);
    }
    const ScopedSpan span(&probes_->spans, SpanName::kFeedParse);
    std::optional<srv::FeedRecord> r = reader_.next(may_block);
    if (r) {
      ++probes_->parsed_records;
    }
    return r;
  }
  bool done() const override { return reader_.done(); }
  bool clean_end() const override { return reader_.clean_end(); }

  void notify_decision(const srv::Decision& d) override {
    if (probes_ == nullptr) {
      const std::uint64_t t = now_ns();
      record_ns_.add(t - last_ns_);
      last_ns_ = t;
    }
    ++decisions_;
    if (d.seq != decisions_ || d.seq > records_.size()) {
      sequence_ok_ = false;
      return;
    }
    if (d.admitted) {
      if (probes_ != nullptr) {
        admitted_.push_back(d.seq - 1);  // replayed by the shadow run
      }
      admitted_bytes_ += records_[d.seq - 1].arrival.size.count;
    } else {
      ++shed_;
    }
  }

  std::int64_t decisions() const {
    return static_cast<std::int64_t>(decisions_);
  }
  std::int64_t shed() const { return shed_; }
  std::int64_t admitted_bytes() const { return admitted_bytes_; }
  bool sequence_ok() const { return sequence_ok_; }
  /// Feed indices of the admitted records, in order (traced units only).
  const std::vector<std::size_t>& admitted() const { return admitted_; }

 private:
  srv::FeedReader& reader_;
  const std::vector<srv::FeedRecord>& records_;
  LogHistogram& record_ns_;
  Probes* probes_;
  std::uint64_t last_ns_;
  std::uint64_t decisions_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t admitted_bytes_ = 0;
  bool sequence_ok_ = true;
  std::vector<std::size_t> admitted_;
};

/// Read-only stream buffer over the rendered feed. Each unit reads the
/// one copy made from the seed: a per-unit copy of the multi-megabyte text
/// would make the allocator's placement, and so the peak RSS, vary from
/// run to run.
class FeedTextBuf final : public std::streambuf {
 public:
  explicit FeedTextBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());  // get area is never written
    setg(p, p, p + text.size());
  }
};

class Serve24 final : public Workload {
 public:
  explicit Serve24(std::uint64_t seed) {
    gen_.segments = {{kServeFeedSec, kLoad, 1.0}};
    gen_.racks = 4;
    gen_.hosts_per_rack = 6;
    gen_.host_link = mbps(100.0);
    gen_.seed = seed;

    // basrptd's defaults for the scheduler (V = 2500 as given, not scaled
    // to 24 hosts), quantum, budget and read-ahead bound, unpaced. The
    // backlog watermark is raised from 256 to 1024 MiB: at the default,
    // heavy-tailed background bursts at this load shed on about 2% of
    // seeds even over a 60 s feed, and the workload measures the
    // admitting path (shed records count as failures).
    config_.sim.fabric = topo::small_fabric(gen_.racks, gen_.hosts_per_rack);
    config_.sim.fabric.host_link = gen_.host_link;
    config_.sim.horizon = seconds(kServeFeedSec + 1.0);
    config_.scheduler = sched::SchedulerSpec::fast_basrpt(kPaperV);
    config_.quantum_sec = 0.005;
    config_.decision_budget_ms = 1.0;
    config_.ingest_capacity = 1024;
    config_.drain_grace_sec = 30.0;
    config_.pace = 0.0;
    config_.health.shed_enter_backlog_bytes = 1024LL << 20;
    config_.health.shed_exit_backlog_bytes = 512LL << 20;

    // The feed is the program's input, made once from the seed and
    // served from memory by every unit.
    records_ = srv::generate_feed(gen_);
    std::ostringstream out;
    srv::write_feed(out, records_);
    text_ = std::move(out).str();
  }

  std::string definition() const override {
    const srv::HealthConfig& h = config_.health;
    return "{\"workload\":\"serve24\",\"version\":1,"
           "\"entry\":\"srv::Server::serve over srv::FeedReader\","
           "\"fabric\":\"topo::small_fabric " +
           fabric_def(config_.sim.fabric) + "\",\"scheduler\":\"" +
           config_.scheduler.to_string() + "\","
           "\"feed\":\"srv::generate_feed one segment " + fmt(kServeFeedSec) +
           " s at load " + fmt(kLoad) + " cv2=1, query_share=" +
           fmt(gen_.query_share) + ", tenants=" +
           std::to_string(gen_.tenants) + ", rendered as basrpt-feed-v1 "
           "text\",\"loop\":\"closed replay, one source, pace=0, "
           "ingest_capacity=" + std::to_string(config_.ingest_capacity) +
           "\",\"quantum_s\":" + fmt(config_.quantum_sec) +
           ",\"health\":\"shed enter/exit " +
           std::to_string(h.shed_enter_backlog_bytes >> 20) + "/" +
           std::to_string(h.shed_exit_backlog_bytes >> 20) + " MiB, " +
           std::to_string(h.shed_enter_flows) + "/" +
           std::to_string(h.shed_exit_flows) + " flows\",\"seed\":" +
           std::to_string(gen_.seed) +
           ",\"record\":\"one feed record\"}";
  }
  std::uint64_t pinned_digest() const override { return kPinnedServe; }
  const topo::FabricConfig* fabric() const override {
    return &config_.sim.fabric;
  }

  void setup() override {
    // What basrptd builds before it reads its first record: the
    // scheduler and the online simulator.
    srv::Server server(config_);
  }

  UnitOutcome run_unit(LogHistogram& record_ns, Probes* probes) override {
    FeedTextBuf buf(text_);
    std::istream in(&buf);
    srv::FeedReader reader(in);
    ProbedSource source(reader, records_, record_ns, probes);
    TimedRegion region(probes);
    srv::Server server(config_);
    const srv::ServeResult result = server.serve(source);
    UnitOutcome out;
    out.wall_ns = region.stop();

    const srv::SloRunTotals& t = result.totals;
    const srv::SloTracker& slo = server.slo();
    Digest d;
    d.add_str(t.status)
        .add_i64(slo.admitted())
        .add_i64(slo.shed())
        .add_i64(t.records_consumed)
        .add_i64(t.flows_arrived)
        .add_i64(t.flows_completed)
        .add_i64(t.active_flows_at_end)
        .add_i64(t.backlog_bytes_at_end)
        .add_i64(t.delivered_bytes)
        .add_i64(t.scheduler_invocations)
        .add_f64(t.feed_seconds);
    for (const auto& [tenant, n] : slo.admitted_by_tenant()) {
      d.add_i64(tenant).add_i64(n);
    }
    for (const auto& [tenant, n] : slo.shed_by_tenant()) {
      d.add_i64(tenant).add_i64(n);
    }
    out.digest = d.value();
    out.records = t.records_consumed;
    out.shed_records = slo.shed();
    out.decisions = static_cast<std::uint64_t>(t.scheduler_invocations);

    std::ostringstream err;
    const auto offered = static_cast<std::int64_t>(records_.size());
    if (result.exit_code != 0 || t.status != "completed") {
      err << "serve ended with status " << t.status << " exit "
          << result.exit_code << "; ";
    }
    if (!source.sequence_ok() || source.decisions() != t.records_consumed ||
        source.shed() != slo.shed()) {
      err << "decision stream: " << source.decisions() << " decisions ("
          << source.shed() << " shed) for " << t.records_consumed
          << " records (" << slo.shed() << " shed); ";
    }
    if (offered != slo.admitted() + slo.shed() ||
        offered != t.records_consumed) {
      err << "admission: offered " << offered << " != admitted "
          << slo.admitted() << " + shed " << slo.shed() << " (consumed "
          << t.records_consumed << "); ";
    }
    if (t.flows_arrived != slo.admitted() ||
        t.flows_arrived != t.flows_completed + t.active_flows_at_end) {
      err << "flows: admitted " << slo.admitted() << ", arrived "
          << t.flows_arrived << " != completed " << t.flows_completed
          << " + active " << t.active_flows_at_end << "; ";
    }
    if (source.admitted_bytes() !=
        t.delivered_bytes + t.backlog_bytes_at_end) {
      err << "bytes: admitted " << source.admitted_bytes()
          << " != delivered " << t.delivered_bytes << " + backlog "
          << t.backlog_bytes_at_end << "; ";
    }

    if (probes != nullptr) {
      probes->queue_depth_peak =
          std::max(probes->queue_depth_peak, slo.queue_depth_peak());
      probes->shed += slo.shed();
      probes->health_transitions +=
          static_cast<std::int64_t>(server.health().transitions().size());
      // The server builds its own scheduler, so the decorator runs on a
      // shadow: the same online simulator fed the admitted records with
      // the server's quantum stepping. Its decision count must match.
      const std::uint64_t shadow = shadow_run(source.admitted(), *probes);
      if (shadow != out.decisions) {
        err << "shadow replay made " << shadow << " decisions, server "
            << out.decisions << "; ";
      }
    }
    out.ledger_error = err.str();
    return out;
  }

 private:
  static constexpr double kLoad = 0.4;

  std::uint64_t shadow_run(const std::vector<std::size_t>& admitted,
                           Probes& probes) const {
    sched::SchedulerPtr s = scheduler_for(config_.scheduler, &probes, true);
    flowsim::OnlineFlowSim sim(config_.sim, *s);
    const double q = config_.quantum_sec;
    auto advance_in_quanta = [&](double target) {
      double now = sim.now().seconds;
      while (now + q < target) {
        now += q;
        sim.advance_to(SimTime{now});
      }
      if (target > now) {
        sim.advance_to(SimTime{target});
      }
    };
    for (const std::size_t k : admitted) {
      const workload::FlowArrival& a = records_[k].arrival;
      advance_in_quanta(a.time.seconds);
      sim.offer(a);
      sim.advance_to(a.time);
    }
    const double start = sim.now().seconds;
    const double grace_end = start + config_.drain_grace_sec;
    double now = start;
    while (sim.active_flows() > 0 && now < grace_end) {
      now = std::min(now + q, grace_end);
      sim.advance_to(SimTime{now});
    }
    return sim.scheduler_invocations();
  }

  srv::LoadGenConfig gen_;
  srv::ServerConfig config_;
  std::vector<srv::FeedRecord> records_;
  std::string text_;
};

}  // namespace

core::ExperimentConfig paper144_config(std::uint64_t seed) {
  core::ExperimentConfig c;
  c.fabric = topo::paper_fabric();
  c.scheduler = sched::SchedulerSpec::fast_basrpt(
      core::scale_v(kPaperV, c.fabric.hosts()));
  c.load = 0.95;
  c.horizon = seconds(kPaperHorizonSec);
  c.seed = seed;
  return c;
}

flowsim::FlowSimConfig experiment_sim_config(const core::ExperimentConfig& c) {
  flowsim::FlowSimConfig s;
  s.fabric = c.fabric;
  s.horizon = c.horizon;
  s.sample_every = c.sample_every;
  s.packet_bytes = c.packet_bytes;
  s.watched_src = c.watched_src;
  s.watched_dst = c.watched_dst;
  s.min_reschedule_gap = c.min_reschedule_gap;
  s.service_model = c.service_model;
  return s;
}

workload::TrafficSourcePtr experiment_traffic(const core::ExperimentConfig& c) {
  Rng rng(c.seed);
  return workload::paper_mix(c.load, c.query_share, c.fabric.racks,
                             c.fabric.hosts_per_rack, c.fabric.host_link,
                             c.horizon, rng, c.burstiness_cv2,
                             c.governor_headroom);
}

std::uint64_t digest_flowsim(const flowsim::FlowSimResult& r) {
  Digest d;
  d.add_i64(r.flows_arrived)
      .add_i64(r.flows_completed)
      .add_i64(r.flows_left)
      .add_i64(r.bytes_arrived.count)
      .add_i64(r.delivered.count)
      .add_i64(r.bytes_left.count)
      .add_u64(r.scheduler_invocations);
  digest_fct(d, r.fct);
  digest_series(d, r.backlog.total());
  digest_series(d, r.backlog.watched_voq());
  digest_series(d, r.delivered_trace);
  return d.value();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper144") {
    return std::make_unique<Paper144>(seed);
  }
  if (name == "slotted32-srpt") {
    return std::make_unique<Slotted32>(seed);
  }
  if (name == "serve24") {
    return std::make_unique<Serve24>(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double replay_route_solve(const topo::FabricConfig& config,
                          const std::vector<std::vector<ServedFlow>>& sets,
                          std::uint64_t min_ns, SpanRecorder* spans) {
  if (sets.empty()) {
    return 0.0;
  }
  const topo::Fabric fabric(config);
  topo::MaxMinSolver solver;
  std::vector<topo::FlowDemand> demands;
  std::vector<Rate> rates;
  std::uint64_t calls = 0;
  std::uint64_t spent = 0;
  // Warm pass (buffers grow to the largest set), then timed passes.
  for (int pass = 0; pass == 0 || spent < min_ns; ++pass) {
    const ScopedSpan span(pass == 0 ? nullptr : spans, SpanName::kTopoReplay);
    const std::uint64_t t0 = now_ns();
    for (const std::vector<ServedFlow>& set : sets) {
      if (demands.size() < set.size()) {
        demands.resize(set.size());
      }
      for (std::size_t k = 0; k < set.size(); ++k) {
        fabric.route_into(set[k].src, set[k].dst, set[k].id, demands[k].path);
        demands[k].cap = Rate{0.0};
      }
      solver.solve_into(demands.data(), set.size(), fabric.capacities(),
                        rates);
    }
    if (pass > 0) {
      spent += now_ns() - t0;
      calls += sets.size();
    }
  }
  return static_cast<double>(spent) / static_cast<double>(calls);
}

}  // namespace e2ebench
