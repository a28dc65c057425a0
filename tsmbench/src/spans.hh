/**
 * @file
 * In-memory spans recorded by the benchmark around each call it makes
 * into the library, so a traced run can attribute host time to layers.
 *
 * Every span carries the pass it belongs to (one set-up pass or one
 * iteration), its parent, and steady-clock start and end times. Spans
 * nest strictly: a child closes before its parent, and siblings never
 * overlap, so a span's self time is its duration minus its children's.
 * With recording off, a Scope costs one branch.
 */

#ifndef TSMBENCH_SPANS_HH
#define TSMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsmbench {

/** Seconds since an arbitrary steady-clock epoch. */
inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Which kind of pass a span belongs to. */
enum class PassKind : std::uint8_t
{
    Setup,
    Iteration,
};

struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: a pass root
    PassKind kind = PassKind::Iteration;
    std::uint32_t pass = 0;   ///< index among passes of its kind
    double start = 0.0;
    double end = 0.0;
};

/** Name of the span that roots every pass. */
inline constexpr const char *kPassSpan = "pass";

/** Name of the span around output checks (excluded from host time). */
inline constexpr const char *kCheckSpan = "check";

class Spans
{
  public:
    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /** Start attributing new spans to this pass. */
    void beginPass(PassKind kind, std::uint32_t index)
    {
        kind_ = kind;
        pass_ = index;
    }

    std::uint32_t open(const char *name)
    {
        Span s;
        s.name = name;
        s.id = std::uint32_t(spans_.size()) + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.kind = kind_;
        s.pass = pass_;
        s.start = nowSeconds();
        spans_.push_back(s);
        stack_.push_back(s.id);
        return s.id;
    }

    void close(std::uint32_t id)
    {
        spans_[id - 1].end = nowSeconds();
        stack_.pop_back();
    }

    /** RAII span; records nothing while recording is off. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name)
            : spans_(spans), id_(spans.recording() ? spans.open(name) : 0)
        {
        }
        ~Scope()
        {
            if (id_)
                spans_.close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::uint32_t id_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self seconds per span name, summed over every pass of `kind`
     * (pass roots included, under kPassSpan).
     */
    std::map<std::string, double> selfSeconds(PassKind kind) const;

    /** Inclusive seconds per span name, summed over passes of `kind`. */
    std::map<std::string, double> totalSeconds(PassKind kind) const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    bool recording_ = false;
    PassKind kind_ = PassKind::Setup;
    std::uint32_t pass_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

} // namespace tsmbench

#endif // TSMBENCH_SPANS_HH
