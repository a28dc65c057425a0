#include "inputs.hh"

#include <numeric>
#include <sstream>

namespace tsmbench {

namespace {

/** Distinct streams from one seed, so workloads never share draws. */
SeededRng
streamFor(std::uint64_t seed, std::uint64_t salt)
{
    SeededRng mix(seed ^ salt);
    return SeededRng(mix.next());
}

void
writeHeader(std::ostringstream &os, const std::string &name,
            std::uint64_t seed, const std::string &topology,
            const std::string &ssn)
{
    os << "{\n  \"schema\": \"tsm-scenario-v1\",\n  \"name\": \"" << name
       << "\",\n  \"seed\": " << seed << ",\n  \"mbe\": 0,\n"
       << "  \"topology\": " << topology << ",\n  \"ssn\": " << ssn;
}

void
writeFlow(std::ostringstream &os, bool first, unsigned id, unsigned src,
          unsigned dst, unsigned vectors, std::uint64_t start,
          bool background)
{
    os << (first ? "\n" : ",\n") << "    {\"id\": " << id
       << ", \"src\": " << src << ", \"dst\": " << dst
       << ", \"tensor\": {\"vectors\": " << vectors
       << "}, \"start\": " << start << ", \"role\": \""
       << (background ? "background" : "foreground") << "\"}";
}

} // namespace

std::string
contendedScenario(std::uint64_t seed)
{
    SeededRng rng = streamFor(seed, 0x636f6e74656e64ull); // "contend"
    std::ostringstream os;
    writeHeader(os, "bench-contended-256", rng.below(100000),
                "{\"kind\": \"single_level\", \"size\": " +
                    std::to_string(kContendedNodes) + "}",
                "{\"max_extra_hops\": 1, \"max_paths\": 8, "
                "\"load_balance\": true}");
    os << ",\n  \"flows\": [";
    unsigned id = 1;
    std::vector<unsigned> perm(kContendedTsps);
    for (unsigned w = 0; w < kContendedWaves; ++w) {
        // Sattolo's shuffle: a single cycle, so no chip maps to itself.
        std::iota(perm.begin(), perm.end(), 0u);
        for (unsigned i = kContendedTsps - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.below(i)]);
        for (unsigned src = 0; src < kContendedTsps; ++src, ++id)
            writeFlow(os, id == 1, id, src, perm[src], kContendedVectors,
                      std::uint64_t(w) * kContendedWaveGap, false);
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::vector<std::string>
fuzzScenarios(std::uint64_t seed)
{
    static const char *const kPatterns[] = {
        "uniform-random", "permutation",   "bit-complement", "transpose",
        "nearest-neighbor", "all-to-one", "one-to-all"};
    static const char *const kCollectives[] = {
        "broadcast", "gather", "reduce_scatter", "all_gather"};

    // How much work a case asks for (topology, wiring, SSN knobs, flow
    // count, tensor sizes, which collective or pattern it adds) is a
    // function of the case index alone, so every seed asks for about
    // the same work. The seed picks where the traffic goes and when:
    // the hotspot, sources, destinations, start offsets, roles, the
    // collective root and the pattern's own seed.
    SeededRng rng = streamFor(seed, 0x66757a7aull); // "fuzz"
    std::vector<std::string> cases;
    for (unsigned c = 0; c < kFuzzCases; ++c) {
        const bool twoNodes = c % 5 < 2;
        const unsigned tsps = twoNodes ? 16 : 8;
        std::string topology =
            twoNodes ? "{\"kind\": \"single_level\", \"size\": 2"
                     : "{\"kind\": \"node\"";
        topology += c % 4 == 3 ? ", \"wiring\": \"triple_ring\"}" : "}";
        const std::string ssn =
            "{\"max_extra_hops\": " + std::to_string(c % 2) +
            ", \"max_paths\": " + std::to_string(2 + c % 7) +
            ", \"load_balance\": " + (c % 5 == 4 ? "false" : "true") +
            "}";

        std::ostringstream os;
        writeHeader(os, "bench-fuzz-" + std::to_string(c),
                    rng.below(100000), topology, ssn);

        // A hotspot chip draws most destinations, and starts cluster
        // around one base, so transfers contend.
        const unsigned hotspot = unsigned(rng.below(tsps));
        const std::uint64_t base = rng.below(3) * 2000;
        const unsigned flows = 1 + (c * 7) % 8;
        os << ",\n  \"flows\": [";
        for (unsigned f = 0; f < flows; ++f) {
            const unsigned src = unsigned(rng.below(tsps));
            unsigned dst = hotspot;
            if (dst == src || !rng.chance(40))
                dst = (src + 1 + unsigned(rng.below(tsps - 1))) % tsps;
            writeFlow(os, f == 0, f + 1, src, dst, 1 + (c * 13 + f * 29) % 16,
                      base + (rng.chance(50) ? 0 : rng.below(2000)),
                      rng.chance(20));
        }
        os << "\n  ]";
        if (c % 3 == 0) {
            os << ",\n  \"collectives\": [\n    {\"op\": \""
               << kCollectives[(c / 3) % 4] << "\", \"root\": "
               << rng.below(tsps) << ", \"vectors\": " << 1 + c % 6
               << ", \"first_flow\": 1001, \"start\": " << base
               << ", \"role\": \"foreground\"}\n  ]";
        }
        if (c % 3 == 1) {
            os << ",\n  \"patterns\": [\n    {\"kind\": \""
               << kPatterns[(c / 3) % 7] << "\", \"vectors\": "
               << 1 + c % 4 << ", \"seed\": " << rng.below(1000)
               << ", \"first_flow\": 2001, \"start\": " << base
               << ", \"role\": \""
               << (rng.chance(30) ? "background" : "foreground")
               << "\"}\n  ]";
        }
        os << "\n}\n";
        cases.push_back(os.str());
    }
    return cases;
}

std::vector<SweepSize>
sweepSizes()
{
    return {{false, 8}, {false, 33}, {true, 4},
            {true, 8},  {true, 16},  {true, 24}};
}

std::vector<unsigned>
sweepOrder(std::uint64_t seed)
{
    SeededRng rng = streamFor(seed, 0x7377656570ull); // "sweep"
    std::vector<unsigned> order(sweepSizes().size());
    std::iota(order.begin(), order.end(), 0u);
    for (unsigned i = unsigned(order.size()) - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    return order;
}

std::uint64_t
hacSystemSeed(std::uint64_t seed)
{
    return streamFor(seed, 0x686163ull).next(); // "hac"
}

std::vector<std::uint32_t>
hacPayloadCycles(std::uint64_t seed, unsigned chip)
{
    SeededRng rng = streamFor(seed ^ (std::uint64_t(chip) << 32),
                              0x7061796c6f6164ull); // "payload"
    std::vector<std::uint32_t> cycles(kHacSegments);
    for (std::uint32_t &c : cycles)
        c = 20000 + std::uint32_t(rng.below(20000));
    return cycles;
}

} // namespace tsmbench
