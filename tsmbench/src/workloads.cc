#include "workloads.hh"

#include "arch/chip.hh"
#include "common/rng.hh"
#include "inputs.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "runtime/system.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "ssn/scheduler.hh"
#include "trace/session.hh"

namespace tsmbench {

using namespace tsm;

namespace {

/** FNV-1a 64, computed here rather than borrowed from the library. */
class Fnv
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i)
            hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

void
hashSchedule(Fnv &fnv, const NetworkSchedule &sched)
{
    for (const ScheduledVector &v : sched.vectors) {
        fnv.u64(v.flow);
        fnv.u64(v.seq);
        for (const ScheduledHop &h : v.hops) {
            fnv.u64(h.link);
            fnv.u64(h.from);
            fnv.u64(h.depart);
            fnv.u64(h.arrive);
        }
    }
}

/**
 * The scenario pipeline step by step, as runScenario runs it with no
 * analyses attached: lower, schedule, build programs, set up chips,
 * run the event loop. Owns the simulation objects so checks can read
 * them after the run.
 */
struct Pipeline
{
    NetworkSchedule schedule;
    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<TspChip>> chips;
    std::uint64_t events = 0;
    std::uint64_t vectors = 0;

    void run(Spans &spans, const Scenario &sc, const Topology &topo)
    {
        LoweredScenario lowered;
        {
            Spans::Scope s(spans, "scenario.lower_s");
            lowered = lowerScenario(sc, topo);
        }
        vectors = 0;
        for (const TensorTransfer &t : lowered.transfers)
            vectors += t.vectors;
        {
            Spans::Scope s(spans, "ssn.schedule_s");
            SsnScheduler scheduler(topo, sc.ssn);
            schedule = scheduler.schedule(lowered.transfers);
        }
        ProgramSet programs;
        {
            Spans::Scope s(spans, "ssn.build_programs_s");
            programs = buildPrograms(schedule, topo);
        }
        {
            Spans::Scope s(spans, "arch.chip_setup_s");
            chips.clear();
            net.reset();
            eq = std::make_unique<EventQueue>();
            net = std::make_unique<Network>(topo, *eq, Rng(sc.seed));
            for (TspId t = 0; t < topo.numTsps(); ++t) {
                chips.push_back(
                    std::make_unique<TspChip>(t, *net, DriftClock()));
                chips[t]->setStream(0, makeVec(Vec(1.0f)));
                programs.byChip[t].emitHalt();
                chips[t]->load(std::move(programs.byChip[t]));
                chips[t]->start(0);
            }
        }
        {
            Spans::Scope s(spans, "sim.run_s");
            events = eq->run();
        }
    }

    std::uint64_t hops() const
    {
        std::uint64_t n = 0;
        for (const ScheduledVector &v : schedule.vectors)
            n += v.hops.size();
        return n;
    }

    std::uint64_t instrs() const
    {
        std::uint64_t n = 0;
        for (const auto &c : chips)
            n += c->stats().instrsExecuted;
        return n;
    }

    void addCounts(Counts &c) const
    {
        c.vectors += vectors;
        c.hops += hops();
        c.delayCycles += schedule.blame.totalDelayCycles;
        c.issueDelayCycles += schedule.blame.issueDelayCycles;
        c.events += events;
        c.instrs += instrs();
        c.flits += net->totalFlits();
        c.simPs += double(eq->now());
    }

    /** The checks that hold for any input. */
    void check(Checks &checks, const Topology &topo,
               const std::string &what) const
    {
        const ValidationReport v = validateSchedule(schedule, topo);
        checks.expect(v.ok, what + ": invalid schedule: " +
                                v.firstViolation);
        checks.expect(net->totalFlits() == hops(),
                      what + ": delivered " +
                          std::to_string(net->totalFlits()) +
                          " flits for " + std::to_string(hops()) +
                          " scheduled hops");
        const std::uint64_t scheduled = schedule.vectors.size();
        checks.expect(scheduled == vectors,
                      what + ": scheduled " + std::to_string(scheduled) +
                          " of " + std::to_string(vectors) + " vectors");
        for (const auto &c : chips)
            checks.expect(c->halted(), what + ": tsp" +
                                           std::to_string(c->id()) +
                                           " did not halt");
    }
};

bool
parseInto(Spans &spans, Checks &checks, const std::string &text,
          Scenario &out, const std::string &what)
{
    Spans::Scope s(spans, "scenario.parse_s");
    std::string error;
    const bool ok = parseScenario(text, out, &error);
    checks.expect(ok, what + ": rejected: " + error);
    return ok;
}

// ---------------------------------------------------------------------

/**
 * contended_256: one large contended scenario per iteration, analyses
 * off — the scheduler and the event loop under load.
 */
class Contended : public Workload
{
  public:
    explicit Contended(std::uint64_t seed)
        : seed_(seed), text_(contendedScenario(seed))
    {
    }

    void setup(Spans &spans, Checks &checks) override
    {
        valid_ = parseInto(spans, checks, text_, scenario_, "contended");
        if (!valid_)
            return;
        Spans::Scope s(spans, "net.topology_build_s");
        topo_ = scenario_.topology.build();
    }

    void iterate(Spans &spans, Checks &checks, bool first) override
    {
        if (!valid_) {
            checks.expect(false, "contended: no valid input");
            return;
        }
        run_.run(spans, scenario_, topo_);
        checks.run(spans, [&] { check(checks, first); });
    }

    Counts counts() const override
    {
        Counts c;
        if (run_.eq)
            run_.addCounts(c);
        return c;
    }

    std::vector<SimResult> results() const override
    {
        return {{"sim_makespan_cycles", "cycles",
                 double(run_.schedule.makespan), ""}};
    }

  private:
    void check(Checks &checks, bool first)
    {
        run_.check(checks, topo_, "contended");
        checks.expect(run_.schedule.makespan > 0, "contended: makespan 0");
        if (!first)
            return;
        // The step-by-step pipeline must reproduce the top-level entry.
        TraceSession inactive;
        const ScenarioRunResult top = runScenario(inactive, scenario_);
        Fnv mine, theirs;
        hashSchedule(mine, run_.schedule);
        hashSchedule(theirs, top.traced.schedule);
        checks.expect(top.makespan == run_.schedule.makespan &&
                          top.traced.flitsDelivered ==
                              run_.net->totalFlits() &&
                          mine.value() == theirs.value(),
                      "contended: step-by-step pipeline differs from "
                      "runScenario");
        if (seed_ != kDefaultSeed)
            return;
        checks.pin("contended makespan", run_.schedule.makespan, 17212);
        checks.pin("contended flits", run_.net->totalFlits(), 88320);
        checks.pin("contended events", run_.events, 412815);
        checks.pin("contended schedule fnv", mine.value(),
                   11978607921657302129ull);
    }

    std::uint64_t seed_;
    std::string text_;
    bool valid_ = false;
    Scenario scenario_;
    Topology topo_;
    Pipeline run_;
};

// ---------------------------------------------------------------------

/**
 * fuzz_oracle: many small scenarios per iteration, each round-tripped
 * through the parser and run with the journal, profiler and blame
 * analyses on, then run bare step by step for the analysis overhead.
 */
class Fuzz : public Workload
{
  public:
    explicit Fuzz(std::uint64_t seed)
        : seed_(seed), texts_(fuzzScenarios(seed))
    {
    }

    void setup(Spans &spans, Checks &checks) override
    {
        valid_ = true;
        Scenario sc;
        for (std::size_t i = 0; i < texts_.size(); ++i)
            valid_ &= parseInto(spans, checks, texts_[i], sc,
                                "fuzz case " + std::to_string(i));
    }

    void iterate(Spans &spans, Checks &checks, bool first) override
    {
        counts_ = Counts{};
        makespans_ = 0;
        if (!valid_) {
            checks.expect(false, "fuzz: no valid input");
            return;
        }
        Fnv journals, schedules;
        for (std::size_t i = 0; i < texts_.size(); ++i) {
            const std::string what = "fuzz case " + std::to_string(i);
            Scenario sc, again;
            if (!parseInto(spans, checks, texts_[i], sc, what))
                continue;
            std::string dumped;
            {
                Spans::Scope s(spans, "scenario.dump_s");
                dumped = dumpScenario(sc);
            }
            if (!parseInto(spans, checks, dumped, again, what))
                continue;
            ScenarioExecution exec;
            {
                Spans::Scope s(spans, "prof.execute_s");
                exec = executeScenario(again);
            }
            Topology topo;
            Pipeline bare;
            {
                Spans::Scope s(spans, "prof.bare_s");
                {
                    Spans::Scope t(spans, "net.topology_build_s");
                    topo = again.topology.build();
                }
                bare.run(spans, again, topo);
            }
            bare.addCounts(counts_);
            makespans_ += bare.schedule.makespan;
            checks.run(spans, [&] {
                bare.check(checks, topo, what);
                checks.expect(dumpScenario(again) == dumped,
                              what + ": parse(dump) is not byte-stable");
                checks.expect(exec.waterfallsExact(),
                              what + ": waterfalls are not exact");
                std::string why;
                checks.expect(exec.blameExact(&why),
                              what + ": blame is not exact: " + why);
                checks.expect(exec.makespan == bare.schedule.makespan &&
                                  exec.flitsDelivered ==
                                      bare.net->totalFlits(),
                              what + ": step-by-step pipeline differs "
                                     "from executeScenario");
                journals.text(exec.journal);
                hashSchedule(schedules, bare.schedule);
            });
        }
        if (first && seed_ == kDefaultSeed) {
            checks.run(spans, [&] {
                checks.pin("fuzz makespan sum", makespans_, 643044);
                checks.pin("fuzz flits", counts_.flits, 13505);
                checks.pin("fuzz events", counts_.events, 62045);
                checks.pin("fuzz journal fnv", journals.value(),
                           15844880707436964098ull);
                checks.pin("fuzz schedule fnv", schedules.value(),
                           6154783523471226318ull);
            });
        }
    }

    Counts counts() const override { return counts_; }

    std::vector<SimResult> results() const override
    {
        return {{"sim_makespan_cycles", "cycles", double(makespans_), ""}};
    }

  private:
    std::uint64_t seed_;
    std::vector<std::string> texts_;
    bool valid_ = false;
    Counts counts_;
    std::uint64_t makespans_ = 0;
};

// ---------------------------------------------------------------------

/** Diameter, latency diameter and bisection of one sweep size. */
struct TopoFacts
{
    unsigned tsps = 0;
    unsigned diameter = 0;
    Tick latencyPs = 0;
    unsigned bisection = 0;

    bool operator==(const TopoFacts &) const = default;
};

/**
 * topology_sweep: the Fig 2 analyses over increasing dragonfly sizes —
 * topology analysis only, with no scheduling and no event loop.
 */
class Sweep : public Workload
{
  public:
    explicit Sweep(std::uint64_t seed)
        : sizes_(sweepSizes()), order_(sweepOrder(seed))
    {
    }

    void setup(Spans &spans, Checks &) override
    {
        topos_.clear();
        for (const SweepSize &s : sizes_) {
            Spans::Scope t(spans, "net.topology_build_s");
            topos_.push_back(s.twoLevel ? Topology::makeTwoLevel(s.count)
                                        : Topology::makeSingleLevel(
                                              s.count));
        }
    }

    void iterate(Spans &spans, Checks &checks, bool first) override
    {
        facts_.assign(topos_.size(), TopoFacts{});
        for (unsigned i : order_) {
            const Topology &topo = topos_[i];
            TopoFacts &f = facts_[i];
            f.tsps = topo.numTsps();
            {
                Spans::Scope s(spans, "net.diameter_s");
                f.diameter = topo.diameter();
            }
            {
                Spans::Scope s(spans, "net.latency_diameter_s");
                f.latencyPs = topo.latencyDiameterPs();
            }
            {
                Spans::Scope s(spans, "net.bisection_s");
                f.bisection = topo.bisectionLinks();
            }
        }
        checks.run(spans, [&] { check(checks, first); });
    }

    Counts counts() const override { return Counts{}; }

    std::vector<SimResult> results() const override
    {
        const TopoFacts &big = facts_.back();
        // The paper states both for its largest system; this sweep
        // stops at a size whose all-pairs analysis fits an iteration.
        const std::string here =
            "; measured here at " + std::to_string(big.tsps) + " TSPs";
        return {{"topo_diameter_hops", "hops", double(big.diameter),
                 "5-hop diameter at 10,440 TSPs" + here},
                {"topo_latency_diameter_us", "us",
                 double(big.latencyPs) / 1e6,
                 "< 3 us end to end at 10,440 TSPs" + here}};
    }

  private:
    void check(Checks &checks, bool first)
    {
        if (first)
            firstFacts_ = facts_;
        // Topologies do not depend on the seed, so every seed must
        // reproduce these diameters, in any visiting order. Latency
        // diameter and bisection are only required to be sane and
        // repeatable: the sampled latency diameter and the id-split
        // bisection are approximations that may be made exact.
        static const unsigned kDiameters[] = {3, 3, 5, 6, 6, 7};
        checks.expect(facts_.size() == std::size(kDiameters),
                      "sweep: sizes and pinned diameters differ");
        checks.expect(facts_ == firstFacts_,
                      "sweep: results differ from the first iteration");
        for (std::size_t i = 0; i < facts_.size(); ++i) {
            const TopoFacts &f = facts_[i];
            const std::string what = std::to_string(f.tsps) + " TSPs";
            checks.expect(topos_[i].connected(), what + ": disconnected");
            if (i < std::size(kDiameters))
                checks.pin(what + " diameter", f.diameter, kDiameters[i]);
            checks.expect(f.latencyPs > 0, what + ": latency diameter 0");
            checks.expect(f.bisection > 0 &&
                              f.bisection <= topos_[i].links().size(),
                          what + ": bisection of " +
                              std::to_string(f.bisection) + " links");
        }
    }

    std::vector<SweepSize> sizes_;
    std::vector<unsigned> order_;
    std::vector<Topology> topos_;
    std::vector<TopoFacts> facts_;
    std::vector<TopoFacts> firstFacts_;
};

// ---------------------------------------------------------------------

/**
 * hac_bringup: a drifting, jittery TsmSystem brought up over and over —
 * HAC alignment, an aligned launch, and a run to completion. The event
 * queue sees periodic timer traffic here instead of flit deliveries.
 */
class Hac : public Workload
{
  public:
    explicit Hac(std::uint64_t seed) : seed_(seed) {}

    void setup(Spans &spans, Checks &) override
    {
        Topology topo;
        {
            Spans::Scope s(spans, "net.topology_build_s");
            topo = Topology::forSystemSize(kHacTsps);
        }
        SystemConfig cfg;
        cfg.numTsps = kHacTsps;
        cfg.driftPpmSigma = kHacDriftPpm;
        cfg.jitter = true;
        cfg.seed = hacSystemSeed(seed_);
        sys_.reset();
        Spans::Scope s(spans, "runtime.system_build_s");
        sys_ = std::make_unique<TsmSystem>(cfg, std::move(topo));
    }

    void iterate(Spans &spans, Checks &checks, bool first) override
    {
        TsmSystem &sys = *sys_;
        const Tick t0 = sys.eventq().now();
        std::uint64_t instrs0 = 0;
        for (TspId t = 0; t < sys.numTsps(); ++t)
            instrs0 += sys.chip(t).stats().instrsExecuted;
        const std::uint64_t flits0 = sys.net().totalFlits();

        {
            Spans::Scope s(spans, "sync.synchronize_s");
            residual_ = sys.synchronize(Tick(kHacSyncMs * double(kPsPerMs)));
        }
        bool done = false;
        {
            Spans::Scope s(spans, "runtime.launch_run_s");
            std::vector<Program> payloads(sys.numTsps());
            for (TspId t = 0; t < sys.numTsps(); ++t) {
                for (std::uint32_t cycles : hacPayloadCycles(seed_, t)) {
                    payloads[t].emitCompute(cycles);
                    payloads[t].emit(Op::RuntimeDeskew).imm = 64;
                }
            }
            sys.launchAligned(std::move(payloads));
            done = sys.runToCompletion();
        }
        counts_ = Counts{};
        counts_.simPs = double(sys.eventq().now() - t0);
        for (TspId t = 0; t < sys.numTsps(); ++t)
            counts_.instrs += sys.chip(t).stats().instrsExecuted;
        counts_.instrs -= instrs0;
        counts_.flits = sys.net().totalFlits() - flits0;

        checks.run(spans, [&] {
            checks.expect(done, "hac: runToCompletion() returned false");
            checks.expect(residual_ >= 0 && residual_ <= kMaxResidual,
                          "hac: residual " + std::to_string(residual_) +
                              " cycles after alignment");
            for (TspId t = 0; t < sys.numTsps(); ++t)
                checks.expect(sys.chip(t).halted(),
                              "hac: tsp" + std::to_string(t) +
                                  " did not halt");
            checks.expect(sys.criticalErrors() == 0,
                          "hac: uncorrectable errors");
            if (first && seed_ == kDefaultSeed) {
                checks.pin("hac residual", std::uint64_t(residual_), 14);
                checks.pin("hac simulated ps", std::uint64_t(counts_.simPs),
                           8160285468);
                checks.pin("hac instrs", counts_.instrs, 521);
            }
        });
    }

    Counts counts() const override { return counts_; }

    std::vector<SimResult> results() const override
    {
        return {{"hac_residual_cycles", "cycles", double(residual_), ""}};
    }

  private:
    /**
     * Worst last HAC adjustment accepted after alignment, in cycles. Link
     * jitter keeps it above zero; seeds 1..100 give 10..27.
     */
    static constexpr int kMaxResidual = 40;

    std::uint64_t seed_;
    std::unique_ptr<TsmSystem> sys_;
    int residual_ = 0;
    Counts counts_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "contended_256", "topology_sweep", "fuzz_oracle", "hac_bringup"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "contended_256")
        return std::make_unique<Contended>(seed);
    if (name == "topology_sweep")
        return std::make_unique<Sweep>(seed);
    if (name == "fuzz_oracle")
        return std::make_unique<Fuzz>(seed);
    if (name == "hac_bringup")
        return std::make_unique<Hac>(seed);
    return nullptr;
}

} // namespace tsmbench
