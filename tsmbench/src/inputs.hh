/**
 * @file
 * Seeded generation of every workload's inputs. The benchmark, not the
 * library, generates them, so the program under test only ever sees
 * the generated scenario text or system configuration. Equal seeds
 * give byte-identical inputs.
 */

#ifndef TSMBENCH_INPUTS_HH
#define TSMBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tsmbench {

/** splitmix64: small, portable, and fixed across standard libraries. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    bool chance(unsigned percent) { return below(100) < percent; }

  private:
    std::uint64_t state_;
};

/// @name contended_256
/// @{
/** Nodes of the single-level dragonfly: 32 nodes of 8 = 256 TSPs. */
inline constexpr unsigned kContendedNodes = 32;
inline constexpr unsigned kContendedTsps = kContendedNodes * 8;
/**
 * Permutation waves, each a cyclic permutation of all 256 TSPs (no
 * chip sends to itself), with every flow moving kContendedVectors.
 * Wave w starts at w * kContendedWaveGap cycles. With larger flows or
 * a shorter gap, some seeds overflow a forwarding chip's stream
 * registers and the parser rejects the scenario; at these sizes seeds
 * 1..1000 are all accepted.
 */
inline constexpr unsigned kContendedWaves = 16;
inline constexpr unsigned kContendedVectors = 8;
inline constexpr unsigned kContendedWaveGap = 1024;
/// @}

/** Canonical-enough scenario text for one contended run. */
std::string contendedScenario(std::uint64_t seed);

/// @name fuzz_oracle
/// @{
/** Small contention-biased scenarios per iteration. */
inline constexpr unsigned kFuzzCases = 160;
/// @}

/** kFuzzCases scenario texts; case i is named "bench-fuzz-<i>". */
std::vector<std::string> fuzzScenarios(std::uint64_t seed);

/// @name topology_sweep
/// @{
/** One dragonfly size of the Fig 2 sweep. */
struct SweepSize
{
    bool twoLevel = false;
    unsigned count = 0; ///< nodes (single-level) or racks (two-level)
};

/** The sweep, smallest to largest TSP count. */
std::vector<SweepSize> sweepSizes();
/// @}

/**
 * The order in which one run visits the sweep sizes. Topologies do
 * not depend on a seed, so the seed only shuffles the visiting order;
 * every result is the same for every seed.
 */
std::vector<unsigned> sweepOrder(std::uint64_t seed);

/// @name hac_bringup
/// @{
inline constexpr unsigned kHacTsps = 32;
/** Clock drift sigma in ppm, and the HAC alignment window per pass. */
inline constexpr double kHacDriftPpm = 50.0;
inline constexpr double kHacSyncMs = 8.0;
/** Compute segments per chip in the launched payload. */
inline constexpr unsigned kHacSegments = 4;
/// @}

/** System seed for a hac_bringup run (drift, phase and jitter draws). */
std::uint64_t hacSystemSeed(std::uint64_t seed);

/** Per-segment compute cycles of `chip`'s payload, drawn from the seed. */
std::vector<std::uint32_t> hacPayloadCycles(std::uint64_t seed,
                                            unsigned chip);

} // namespace tsmbench

#endif // TSMBENCH_INPUTS_HH
