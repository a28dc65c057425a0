/**
 * @file
 * The four benchmark workloads. Each drives the library only through
 * its public entry points, wraps every call in a span named after the
 * layer metric it feeds, and checks the simulator's outputs on every
 * iteration.
 */

#ifndef TSMBENCH_WORKLOADS_HH
#define TSMBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace tsmbench {

/** The seed whose simulated outputs are pinned. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Output checks. Check code runs inside run(), which records it under
 * a kCheckSpan span and keeps its time out of the host metrics.
 */
class Checks
{
  public:
    /** Perturb every pinned value, to prove a wrong output fails. */
    bool tamper = false;

    template <class F>
    void run(Spans &spans, F &&check)
    {
        Spans::Scope scope(spans, kCheckSpan);
        const double t0 = nowSeconds();
        check();
        seconds_ += nowSeconds() - t0;
    }

    void expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures_.push_back(what);
    }

    /** A simulated output of the default seed. */
    void pin(const std::string &name, std::uint64_t got,
             std::uint64_t want)
    {
        if (tamper)
            ++want;
        expect(got == want, name + " = " + std::to_string(got) +
                                ", pinned " + std::to_string(want));
    }

    /** Seconds spent in checks since the last call. */
    double takeSeconds()
    {
        const double s = seconds_;
        seconds_ = 0.0;
        return s;
    }

    const std::vector<std::string> &failures() const { return failures_; }

  private:
    double seconds_ = 0.0;
    std::vector<std::string> failures_;
};

/** Simulated work of one iteration, summed over its runs. */
struct Counts
{
    std::uint64_t vectors = 0;      ///< vectors the transfers move
    std::uint64_t hops = 0;         ///< scheduled vector-hops
    std::uint64_t delayCycles = 0;  ///< schedule delay, all causes
    std::uint64_t issueDelayCycles = 0;
    std::uint64_t events = 0;       ///< events run by EventQueue::run
    std::uint64_t instrs = 0;       ///< instructions executed by chips
    std::uint64_t flits = 0;        ///< data flits delivered
    double simPs = 0.0;             ///< simulated time advanced
};

/** A simulated result with the paper's figure for it, when it has one. */
struct SimResult
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string reference; ///< empty: no paper reference (unvalidated)
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One complete set-up pass; each pass replaces the previous. */
    virtual void setup(Spans &spans, Checks &checks) = 0;

    /** One iteration, checking its outputs before it returns. */
    virtual void iterate(Spans &spans, Checks &checks, bool first) = 0;

    /** Work of the last iteration. */
    virtual Counts counts() const = 0;

    /** Simulated results of the last iteration. */
    virtual std::vector<SimResult> results() const = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace tsmbench

#endif // TSMBENCH_WORKLOADS_HH
