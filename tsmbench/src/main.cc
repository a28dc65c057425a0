/**
 * @file
 * The repository benchmark program.
 *
 *   tsm_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *   tsm_bench --selftest
 *
 * A run sets the workload up, then iterates it for S seconds, checking
 * the simulator's outputs on every iteration; check time is kept out of
 * every host metric. Set-up is repeated through the run and reported as
 * the median pass. With --trace 0 it reports the end-to-end metrics. With
 * --trace 1 it alternates traced and untraced iterations, derives each
 * layer's self time from the traced ones, and reports the per-layer
 * metrics, tracing overhead included. The last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 only if every check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "inputs.hh"
#include "scenario/scenario.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace tsmbench;

namespace {

/**
 * Set-up passes before the first iteration, and the share of the
 * iterations' time that later set-up passes may take. Set-up time is
 * the median of all passes.
 */
constexpr unsigned kSetupPasses = 3;
constexpr double kSetupShare = 0.1;

/** Samples a tail percentile must leave beyond it. */
constexpr std::size_t kTailBeyond = 10;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

/**
 * The highest nearest-rank percentile with at least kTailBeyond
 * samples above it, or the maximum when there are too few samples.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    std::size_t beyond = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= kTailBeyond) {
        t.value = v.back();
        return t;
    }
    const std::size_t rank = n - kTailBeyond; // 1-based
    t.value = v[rank - 1];
    t.percentile = std::floor(100.0 * double(rank) / double(n));
    t.beyond = kTailBeyond;
    return t;
}

double
peakRssMb()
{
    // VmHWM, not getrusage(): ru_maxrss keeps the high-water mark of
    // the process image before exec, so a launcher's own size leaks in.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, unsigned attempted, unsigned failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
    bool selftest = false;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--selftest") {
            o.selftest = true;
        } else if (a == "--workload" && hasValue) {
            o.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && hasValue) {
            o.trace = std::string(argv[++i]) == "1";
        } else if (a == "--spans" && hasValue) {
            o.spansPath = argv[++i];
        } else {
            std::fprintf(stderr, "tsm_bench: bad argument '%s'\n", a.c_str());
            return false;
        }
    }
    return o.selftest || (!o.workload.empty() && o.seconds > 0.0);
}

/** Everything one run measured. */
struct RunData
{
    std::vector<double> setupS;
    std::vector<double> iterS;       ///< untraced iterations
    std::vector<double> tracedIterS; ///< traced iterations
    unsigned attempted = 0;
    unsigned failed = 0;
    Counts counts;                   ///< of the first iteration
    std::vector<SimResult> results;  ///< of the first iteration
};

RunData
runWorkload(Workload &w, const Options &o, Spans &spans, Checks &checks)
{
    RunData d;
    double setupTotal = 0.0, iterTotal = 0.0;
    const auto setupPass = [&] {
        spans.setRecording(o.trace);
        spans.beginPass(PassKind::Setup, unsigned(d.setupS.size()));
        const double t0 = nowSeconds();
        {
            Spans::Scope root(spans, kPassSpan);
            w.setup(spans, checks);
        }
        d.setupS.push_back(nowSeconds() - t0 - checks.takeSeconds());
        setupTotal += d.setupS.back();
    };
    for (unsigned p = 0; p < kSetupPasses; ++p)
        setupPass();

    const double deadline = nowSeconds() + o.seconds;
    unsigned traced = 0;
    for (unsigned i = 0; i == 0 || nowSeconds() < deadline; ++i) {
        // Host speed here drifts over seconds, so set-up is sampled
        // across the whole run, as iterations are: one more pass
        // whenever set-up has had less than kSetupShare of the time.
        if (i > 0 && setupTotal < kSetupShare * iterTotal)
            setupPass();
        // With --trace 1, even iterations are traced and odd ones are
        // not; their difference is the tracing overhead.
        const bool tracing = o.trace && i % 2 == 0;
        spans.setRecording(tracing);
        spans.beginPass(PassKind::Iteration, traced);
        const std::size_t failuresBefore = checks.failures().size();
        const double t0 = nowSeconds();
        {
            Spans::Scope root(spans, kPassSpan);
            w.iterate(spans, checks, i == 0);
        }
        const double s = nowSeconds() - t0 - checks.takeSeconds();
        iterTotal += s;
        ++d.attempted;
        if (checks.failures().size() != failuresBefore)
            ++d.failed;
        if (i == 0) {
            d.counts = w.counts();
            d.results = w.results();
        }
        if (tracing) {
            d.tracedIterS.push_back(s);
            ++traced;
        } else {
            d.iterS.push_back(s);
        }
    }
    spans.setRecording(false);
    return d;
}

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const RunData &d, const Spans &spans)
{
    const auto setupSelf = spans.selfSeconds(PassKind::Setup);
    const auto iterSelf = spans.selfSeconds(PassKind::Iteration);
    const auto iterTotal = spans.totalSeconds(PassKind::Iteration);
    const double nSetup = double(d.setupS.size());
    const double nIter = double(std::max<std::size_t>(1, d.tracedIterS.size()));
    const auto at = [](const std::map<std::string, double> &m,
                       const char *k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    // A layer's seconds in one set-up pass plus one iteration.
    const auto self = [&](const char *k) {
        return at(setupSelf, k) / nSetup + at(iterSelf, k) / nIter;
    };
    const double runS = at(iterSelf, "sim.run_s") / nIter;
    const double bareS = at(iterTotal, "prof.bare_s") / nIter;
    const double execS = self("prof.execute_s");

    std::vector<Metric> m = {
        {"scenario.parse_s", self("scenario.parse_s"), "s"},
        {"scenario.dump_s", self("scenario.dump_s"), "s"},
        {"scenario.lower_s", self("scenario.lower_s"), "s"},
        {"net.topology_build_s", self("net.topology_build_s"), "s"},
        {"net.diameter_s", self("net.diameter_s"), "s"},
        {"net.latency_diameter_s", self("net.latency_diameter_s"), "s"},
        {"net.bisection_s", self("net.bisection_s"), "s"},
        {"ssn.schedule_s", self("ssn.schedule_s"), "s"},
        {"ssn.build_programs_s", self("ssn.build_programs_s"), "s"},
        {"ssn.hops", double(d.counts.hops), "count"},
        {"ssn.delay_cycles", double(d.counts.delayCycles), "cycles"},
        {"ssn.issue_delay_cycles", double(d.counts.issueDelayCycles),
         "cycles"},
        {"arch.chip_setup_s", self("arch.chip_setup_s"), "s"},
        {"arch.instrs", double(d.counts.instrs), "count"},
        {"net.flits", double(d.counts.flits), "count"},
        {"sim.run_s", self("sim.run_s"), "s"},
        {"sim.events", double(d.counts.events), "count"},
        {"sim.ns_per_event",
         d.counts.events ? 1e9 * runS / double(d.counts.events) : 0.0,
         "ns"},
        {"runtime.system_build_s", self("runtime.system_build_s"), "s"},
        {"sync.synchronize_s", self("sync.synchronize_s"), "s"},
        {"runtime.launch_run_s", self("runtime.launch_run_s"), "s"},
        {"prof.execute_s", execS, "s"},
        {"prof.bare_s", bareS, "s"},
        {"prof.analysis_overhead_ratio", bareS > 0 ? execS / bareS : 0.0,
         "ratio"},
        {"trace.setup_s", mean(d.setupS), "s"},
        {"trace.iter_s", mean(d.tracedIterS), "s"},
        {"trace.unattributed_s", at(iterSelf, kPassSpan) / nIter, "s"},
        {"trace.overhead_s", median(d.tracedIterS) - median(d.iterS), "s"},
    };
    // Every workload reports every simulated result; a result another
    // workload produces reads 0 here.
    for (Metric r : {Metric{"sim_makespan_cycles", 0.0, "cycles"},
                     Metric{"hac_residual_cycles", 0.0, "cycles"},
                     Metric{"topo_diameter_hops", 0.0, "hops"},
                     Metric{"topo_latency_diameter_us", 0.0, "us"}}) {
        for (const SimResult &mine : d.results)
            if (mine.name == r.name)
                r.value = mine.value;
        m.push_back(r);
    }
    return m;
}

int
selftest()
{
    int bad = 0;
    const auto fail = [&](const std::string &why) {
        std::printf("selftest FAIL: %s\n", why.c_str());
        ++bad;
    };
    // Every seed's generated inputs must be accepted by the parser.
    tsm::Scenario sc;
    std::string error;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const std::string text = contendedScenario(seed);
        if (text != contendedScenario(seed))
            fail("contended input differs for equal seeds");
        if (!tsm::parseScenario(text, sc, &error))
            fail("contended seed " + std::to_string(seed) + ": " + error);
    }
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const auto texts = fuzzScenarios(seed);
        for (std::size_t i = 0; i < texts.size(); ++i)
            if (!tsm::parseScenario(texts[i], sc, &error))
                fail("fuzz seed " + std::to_string(seed) + " case " +
                     std::to_string(i) + ": " + error);
    }
    // The default seed passes its pins, and a tampered pin fails.
    for (const std::string &name : workloadNames()) {
        for (bool tamper : {false, true}) {
            Spans spans;
            Checks checks;
            checks.tamper = tamper;
            auto w = makeWorkload(name, kDefaultSeed);
            w->setup(spans, checks);
            w->iterate(spans, checks, true);
            if (!tamper && !checks.failures().empty())
                fail(name + ": " + checks.failures().front());
            if (tamper && checks.failures().empty())
                fail(name + ": a tampered pin passed");
        }
    }
    std::printf("selftest %s\n", bad ? "failed" : "ok");
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: tsm_bench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--spans FILE] | --selftest\n");
        return 2;
    }
    if (o.selftest)
        return selftest();
    auto w = makeWorkload(o.workload, o.seed);
    if (!w) {
        std::fprintf(stderr, "tsm_bench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }

    Spans spans;
    Checks checks;
    const RunData d = runWorkload(*w, o, spans, checks);
    for (const std::string &f : checks.failures())
        std::printf("check FAILED: %s\n", f.c_str());

    std::printf("workload %s, seed %llu, %u iterations (%u failed, "
                "failed_ratio %.4f)\n",
                o.workload.c_str(), (unsigned long long)o.seed, d.attempted,
                d.failed, double(d.failed) / double(d.attempted));
    for (const SimResult &r : d.results)
        std::printf("simulated %s = %.6g %s  [%s]\n", r.name.c_str(),
                    r.value, r.unit.c_str(),
                    r.reference.empty()
                        ? "no paper reference: unvalidated"
                        : ("paper: " + r.reference).c_str());

    std::vector<Metric> metrics;
    if (o.trace) {
        metrics = layerMetrics(d, spans);
        if (!o.spansPath.empty() && !spans.write(o.spansPath)) {
            std::fprintf(stderr, "tsm_bench: cannot write %s\n",
                         o.spansPath.c_str());
            return 1;
        }
    } else {
        const Tail tail = tailOf(d.iterS);
        const double p50 = median(d.iterS);
        std::printf("iter_s_tail is p%.0f with %zu of %zu samples beyond "
                    "it\n",
                    tail.percentile, tail.beyond, d.iterS.size());
        if (d.counts.vectors)
            std::printf("vectors_per_s = %.6g 1/s\n",
                        double(d.counts.vectors) / p50);
        if (d.counts.simPs > 0)
            std::printf("sim_ms_per_host_s = %.6g ms/s\n",
                        d.counts.simPs / 1e9 / p50);
        metrics = {
            {"setup_s", median(d.setupS), "s"},
            {"iter_s_p50", p50, "s"},
            {"iter_s_tail", tail.value, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }
    for (const Metric &m : metrics)
        std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = checks.failures().empty();
    printResult(correct, d.attempted, d.failed, metrics);
    return correct ? 0 : 1;
}
