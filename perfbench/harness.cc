/**
 * @file
 * Repository benchmark harness: runs one named workload for a host-time
 * budget, checks every simulated result, and prints every metric by
 * name and unit. The last line of stdout is one JSON object with the
 * keys correct, attempted, failed and metrics.
 *
 *   pp_perfbench --workload see_spec|mono_spec|fuzz_oracle|fig8_sweep
 *                --seed N --seconds S --trace 0|1
 *                [--scratch DIR] [--plant-fault]
 *
 * Layers are timed from outside, around calls into their public
 * functions (WorkloadInfo::build, runGolden, simulate, testkit::
 * buildPlan/emitPlan/runOracle, runMatrix, ResultCache::keyFor/lookup/
 * store); the only in-simulator numbers read are the existing pp_prof
 * rows. --trace 0 reports the end-to-end metrics from untraced passes.
 * --trace 1 is a separate run that keeps spans (name, start, end,
 * parent) in memory, derives each layer's self time from them, writes
 * them to DIR/spans-<workload>.jsonl at exit and reports the per-layer
 * metrics. README.md in this directory maps layers to metrics.
 *
 * Every reported host time is scaled to a host of fixed speed by a
 * reference kernel run between the timed operations (HostRef).
 *
 * --plant-fault corrupts committed stores into the progen output region
 * (SimConfig::bugCorruptStoreAbove = testkit::outputBase) so the
 * self-test can show that a wrong result raises the failed count.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/prof.hh"
#include "sim/machine.hh"
#include "sim/result_cache.hh"
#include "testkit/oracle.hh"
#include "testkit/progen.hh"
#include "workloads/workloads.hh"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE ""
#endif
#ifndef PB_BUILD_FLAGS
#define PB_BUILD_FLAGS ""
#endif

using namespace polypath;
namespace fs = std::filesystem;

namespace
{

/** WorkloadParams::seed of the checked-in figures. */
constexpr u64 kFigureSeed = 0x5eed5eed;

/** Table 1 programs run at full size, as the figures do. */
constexpr double kScale = 1.0;

/** A spec or fig8 run cycles through the suites of this many consecutive
 *  workload seeds, one suite a pass, so a run's figures do not hang on
 *  the program sizes of a single seed (xlisp's size alone swings 4x). */
constexpr unsigned kSuites = 8;

/** Set-up is repeated at least kSetupMinReps times and for at least
 *  kSetupMinSeconds (at most kSetupMaxReps times); its median is
 *  reported, so a few-millisecond set-up is still measured steadily. */
constexpr int kSetupMinReps = 16;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 2.5;

/** Generated programs per fuzz_oracle pass. */
constexpr unsigned kFuzzBatch = 64;

// Suite totals `ppsim --workload W --config see|monopath` prints summed
// over the eight programs at the figure seed and scale 1.
constexpr u64 kSeeCommitted = 5'180'958;
constexpr u64 kSeeCycles = 1'996'952;
constexpr u64 kMonoCycles = 2'207'146;

// --- clocks -----------------------------------------------------------

u64
wallNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

u64
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<u64>(ts.tv_nsec);
}

u64 threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
u64 processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

double secs(u64 ns) { return static_cast<double>(ns) / 1e9; }
double millis(u64 ns) { return static_cast<double>(ns) / 1e6; }

// --- spans ------------------------------------------------------------

/** One timed call into a layer, recorded on the main thread. */
struct Span
{
    const char *name;
    u64 startNs;
    u64 endNs;
    int parent;     //!< index into Tracer::spans, -1 for a root
};

/** In-memory span store; inert (one branch per span) unless enabled. */
class Tracer
{
  public:
    bool enabled = false;

    int
    open(const char *name)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, wallNs(), 0, current});
        current = static_cast<int>(spans.size()) - 1;
        return current;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[id].endNs = wallNs();
        current = spans[id].parent;
    }

    /** Number of root spans called @p root. */
    unsigned
    roots(const char *root) const
    {
        unsigned n = 0;
        for (const Span &span : spans)
            n += span.parent < 0 && std::strcmp(span.name, root) == 0;
        return n;
    }

    /**
     * Self time (duration minus the time its child spans cover) summed
     * over every span called @p name below a root called @p root,
     * averaged per such root, in seconds.
     */
    double
    selfPerRoot(const char *name, const char *root) const
    {
        std::vector<u64> child_ns(spans.size(), 0);
        std::vector<int> root_of(spans.size(), -1);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            root_of[i] = span.parent < 0 ? static_cast<int>(i)
                                         : root_of[span.parent];
            if (span.parent >= 0)
                child_ns[span.parent] += span.endNs - span.startNs;
        }
        u64 self = 0;
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            if (std::strcmp(span.name, name) != 0 ||
                std::strcmp(spans[root_of[i]].name, root) != 0)
                continue;
            self += span.endNs - span.startNs - child_ns[i];
        }
        unsigned n = roots(root);
        return n ? secs(self) / n : 0.0;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            out << "{\"id\": " << i << ", \"name\": \"" << span.name
                << "\", \"start_ns\": " << span.startNs
                << ", \"end_ns\": " << span.endNs
                << ", \"parent\": " << span.parent << "}\n";
        }
    }

  private:
    std::vector<Span> spans;
    int current = -1;
};

Tracer tracer;

/** Records one span for the enclosing block. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name) : id(tracer.open(name)) {}
    ~SpanScope() { tracer.close(id); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id;
};

// --- statistics -------------------------------------------------------

/** Linear-interpolated percentile, @p p in [0, 100]. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double median(const std::vector<double> &values)
{
    return percentile(values, 50);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// --- host reference ---------------------------------------------------

/** Nominal time of one reference unit: scaled host times read as if
 *  every unit had taken exactly this long. */
constexpr double kRefUnitS = 0.01;

/** One reference unit is run per this much timed work (~10% extra). */
constexpr double kRefEveryS = 0.1;

/**
 * A fixed reference kernel that shares no code with the simulator:
 * random read-modify-writes with data-dependent branches over a 4 MiB
 * table, then churn of small heap vectors. The host the benchmark runs
 * on is shared, and its speed drifts by tens of percent over seconds to
 * minutes; the simulator's host time drifts with this kernel's, since
 * both are bound by caches, memory and the allocator. Units run on the
 * main thread between the timed operations, and each timed interval is
 * scaled by kRefUnitS over the mean unit time measured with it, so the
 * reported times read as on a host of fixed speed. A change to the
 * simulator moves the scaled times exactly as it moves the raw ones.
 */
class HostRef
{
  public:
    /** Totals at one moment; a measurement window starts at one. */
    struct Mark
    {
        double unitS = 0;
        unsigned units = 0;
    };

    HostRef() : table(1u << 20)
    {
        for (size_t i = 0; i < table.size(); ++i)
            table[i] = static_cast<u32>(i * 2654435761u);
        for (int i = 0; i < 3; ++i)     // fault the table in, warm caches
            kernel();
    }

    /** Runs the units owed for @p busy_s seconds of timed work. */
    void
    owe(double busy_s)
    {
        due += busy_s;
        while (due >= kRefEveryS) {
            runUnit();
            due -= kRefEveryS;
        }
    }

    Mark mark() const { return totals; }

    /** Time the units since @p m took, for subtracting from a wall time. */
    double spentSince(const Mark &m) const { return totals.unitS - m.unitS; }

    /**
     * Scale factor for host times measured since @p m: kRefUnitS over
     * the mean unit time since then (one unit is run if none was).
     */
    double
    scaleSince(const Mark &m)
    {
        if (totals.units == m.units)
            runUnit();
        return kRefUnitS * (totals.units - m.units) /
               (totals.unitS - m.unitS);
    }

    /** Scale factor over the whole run so far. */
    double scale() { return scaleSince(Mark{}); }

    unsigned units() const { return totals.units; }

  private:
    void
    runUnit()
    {
        u64 start = wallNs();
        kernel();
        totals.unitS += secs(wallNs() - start);
        ++totals.units;
    }

    void
    kernel()
    {
        u64 x = state, acc = 0;
        const u32 mask = static_cast<u32>(table.size() - 1);
        for (int i = 0; i < 200'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            u32 v = table[(x >> 33) & mask];
            if (v & 1)
                acc += v;
            else if (v & 2)
                acc ^= static_cast<u64>(v) << 3;
            else
                acc -= v >> 1;
            table[(x >> 40) & mask] = v + static_cast<u32>(acc);
        }
        std::vector<std::vector<u64>> live(256);
        for (int i = 0; i < 30'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::vector<u64> &v = live[(x >> 20) & 255];
            if ((x >> 40) & 1)
                std::vector<u64>().swap(v);
            size_t n = 1 + ((x >> 45) & 63);
            for (size_t j = 0; j < n; ++j)
                v.push_back(x + j);
            acc += v[(x >> 30) % v.size()];
        }
        state = x;
        sink = acc;
    }

    std::vector<u32> table;
    u64 state = 1;
    double due = 0;
    Mark totals;
    volatile u64 sink = 0;  //!< keeps the kernel's result alive
};

/** The deterministic SimStats counts the benchmark reports and pins. */
struct Counts
{
    u64 cycles = 0;
    u64 committed = 0;
    u64 fetched = 0;
    u64 killed = 0;
    u64 windowOccupancySum = 0;
    u64 divergences = 0;
    u64 recoveries = 0;
    u64 livePathsSum = 0;
    u64 mispredicts = 0;
    u64 lowConfidence = 0;
    u64 loadsForwarded = 0;
    u64 loadBlocked = 0;

    static Counts
    of(const SimStats &s)
    {
        return {s.cycles,
                s.committedInstrs,
                s.fetchedInstrs,
                s.killedInstrs + s.killedFrontend,
                s.windowOccupancySum,
                s.divergences,
                s.recoveries,
                s.livePathsSum,
                s.mispredictedBranches,
                s.lowConfidenceBranches,
                s.loadsForwarded,
                s.loadBlockedEvents};
    }

    void
    add(const Counts &o)
    {
        cycles += o.cycles;
        committed += o.committed;
        fetched += o.fetched;
        killed += o.killed;
        windowOccupancySum += o.windowOccupancySum;
        divergences += o.divergences;
        recoveries += o.recoveries;
        livePathsSum += o.livePathsSum;
        mispredicts += o.mispredicts;
        lowConfidence += o.lowConfidence;
        loadsForwarded += o.loadsForwarded;
        loadBlocked += o.loadBlocked;
    }

    bool operator==(const Counts &) const = default;
};

/** Operations attempted and failed; every failure is reported. */
struct Ledger
{
    u64 attempted = 0;
    u64 failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failed <= 10)
            std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
};

// --- metric catalogue -------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"kips", "kinstr/s"},
    {"runs_per_s", "1/s"},
    {"run_ms_p50", "ms"},
    {"run_ms_p90", "ms"},
    {"peak_rss_mib", "MiB"},
};

/** pp_prof rows, in prof::Stage order, and the metric each feeds. */
const char *const kProfMetric[prof::numStages] = {
    "core.fetch",       "core.rename",       "core.issue",
    "core.writeback",   "core.commit",       "memsys.sq_query",
    "memsys.sq_kill",   "memsys.dcache",     "memsys.mem_read",
    "memsys.mem_write",
};

std::vector<MetricDef>
perLayerDefs()
{
    static std::vector<std::string> names;   // owns prof-derived names
    std::vector<MetricDef> defs = {
        {"workloads.build_s", "s"},
        {"arch.golden_s", "s"},
        {"arch.golden_mips", "Minstr/s"},
        {"core.sim_cpu_s", "s"},
        {"core.ns_per_cycle", "ns/cycle"},
        {"core.ns_per_fetched", "ns/instr"},
        {"core.cycles", "count"},
        {"core.committed", "count"},
        {"core.fetched", "count"},
        {"core.killed", "count"},
        {"core.window_occupancy_avg", "entries"},
        {"ctx.divergences", "count"},
        {"ctx.recoveries", "count"},
        {"ctx.avg_live_paths", "paths"},
        {"bpred.mispredicts", "count"},
        {"bpred.low_confidence", "count"},
        {"memsys.loads_forwarded", "count"},
        {"memsys.load_blocked", "count"},
    };
    if (names.empty()) {
        for (const char *row : kProfMetric) {
            names.push_back(std::string(row) + "_s");
            names.push_back(std::string(row) + ".calls");
        }
    }
    for (size_t i = 0; i < names.size(); i += 2) {
        defs.push_back({names[i].c_str(), "s"});
        defs.push_back({names[i + 1].c_str(), "count"});
    }
    std::vector<MetricDef> tail = {
        {"core.other_s", "s"},
        {"prof.overhead_frac", "frac"},
        {"testkit.progen_s", "s"},
        {"testkit.oracle_s", "s"},
        {"testkit.commits", "count"},
        {"testkit.fetched", "count"},
        {"sim.cache_key_s", "s"},
        {"sim.cache_lookup_s", "s"},
        {"sim.cache_store_s", "s"},
        {"sim.cache_misses", "count"},
        {"sim.cache_stores", "count"},
        {"sim.cache_hits", "count"},
        {"sim.warm_pass_s", "s"},
        {"sim.parallel_eff", "frac"},
    };
    defs.insert(defs.end(), tail.begin(), tail.end());
    return defs;
}

using Metrics = std::map<std::string, double>;

// --- options and provenance -------------------------------------------

struct Options
{
    std::string workload;
    u64 seed = kFigureSeed;
    double seconds = 10;
    bool trace = false;
    bool plantFault = false;
    std::string scratch = ".";
};

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            size_t start = line.find_first_not_of(" \t", colon + 1);
            if (start != std::string::npos)
                return line.substr(start);
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printProvenance(const Options &opts, unsigned workers)
{
    const char *commit = std::getenv("PB_COMMIT");
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char date[32];
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    std::printf(
        "provenance {\"commit\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
        "\"workload\": \"%s\", \"seed\": %llu, \"scale\": %g, "
        "\"workers\": %u, \"date_utc\": \"%s\"}\n",
        jsonEscape(commit && *commit ? commit : "unknown").c_str(),
        jsonEscape(cpuModel()).c_str(), usableCpus(),
#if defined(__clang__)
        "clang " __VERSION__,
#elif defined(__GNUC__)
        "gcc " __VERSION__,
#else
        "unknown",
#endif
        PB_BUILD_TYPE, jsonEscape(PB_BUILD_FLAGS).c_str(),
        opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
        kScale, workers, date);
}

// --- shared layer calls -----------------------------------------------

/**
 * Builds the eight Table 1 programs and their golden runs, one after
 * another on this thread (set-up of see_spec, mono_spec, fig8_sweep).
 */
WorkloadSet
buildSuite(u64 seed)
{
    SpanScope setup("setup");
    WorkloadParams params;
    params.scale = kScale;
    params.seed = seed;
    WorkloadSet suite;
    for (const WorkloadInfo &info : workloadRegistry()) {
        SpanScope span("workloads.build");
        suite.infos.push_back(info);
        suite.programs.push_back(info.build(params));
    }
    for (const Program &program : suite.programs) {
        SpanScope span("arch.golden");
        suite.goldens.push_back(runGolden(program));
    }
    return suite;
}

/**
 * Repeats the set-up @p build(i), i = 0, 1, ... (see kSetupMinReps),
 * each time followed by the reference units it owes; keeps the results
 * of the first @p keep and returns in @p setup_s the median time scaled
 * by the units of the whole set-up phase (a single set-up can be shorter
 * than one unit).
 */
template <class Build>
auto
repeatSetup(Build build, size_t keep, HostRef &ref, double &setup_s)
{
    std::vector<decltype(build(0))> kept;
    std::vector<double> times;
    HostRef::Mark mark = ref.mark();
    u64 first = wallNs();
    for (int i = 0; i < kSetupMaxReps; ++i) {
        if (i >= kSetupMinReps && kept.size() >= keep &&
            secs(wallNs() - first) >= kSetupMinSeconds)
            break;
        u64 start = wallNs();
        auto result = build(i);
        times.push_back(secs(wallNs() - start));
        ref.owe(times.back());
        if (kept.size() < keep)
            kept.push_back(std::move(result));
    }
    setup_s = median(times) * ref.scaleSince(mark);
    return kept;
}

/** The kSuites suites of a spec or fig8 run, seeds @p seed onwards;
 *  the first is the figure suite when @p seed is the figure seed. */
std::vector<WorkloadSet>
buildSuites(u64 seed, HostRef &ref, double &setup_s)
{
    return repeatSetup([&](int i) { return buildSuite(seed + i % kSuites); },
                       kSuites, ref, setup_s);
}

/** Accumulated pp_prof rows of the passes run with collection on. */
struct ProfTotals
{
    std::array<prof::StageCost, prof::numStages> costs{};
    double simWallS = 0;    //!< wall of the profiled simulate/oracle calls
    unsigned passes = 0;

    void
    add(const std::array<prof::StageCost, prof::numStages> &snap)
    {
        for (size_t i = 0; i < prof::numStages; ++i) {
            costs[i].ns += snap[i].ns;
            costs[i].calls += snap[i].calls;
        }
    }
};

void
reportProf(const ProfTotals &totals, Metrics &m)
{
    if (totals.passes == 0)
        return;
    double n = totals.passes;
    double pipeline_s = 0;
    for (size_t i = 0; i < prof::numStages; ++i) {
        double s = secs(totals.costs[i].ns) / n;
        if (i < prof::numPipelineStages)
            pipeline_s += s;
        m[std::string(kProfMetric[i]) + "_s"] = s;
        m[std::string(kProfMetric[i]) + ".calls"] =
            static_cast<double>(totals.costs[i].calls) / n;
    }
    m["core.other_s"] = std::max(0.0, totals.simWallS / n - pipeline_s);
}

void
reportCounts(const Counts &c, Metrics &m)
{
    m["core.cycles"] = static_cast<double>(c.cycles);
    m["core.committed"] = static_cast<double>(c.committed);
    m["core.fetched"] = static_cast<double>(c.fetched);
    m["core.killed"] = static_cast<double>(c.killed);
    m["core.window_occupancy_avg"] =
        ratio(static_cast<double>(c.windowOccupancySum),
              static_cast<double>(c.cycles));
    m["ctx.divergences"] = static_cast<double>(c.divergences);
    m["ctx.recoveries"] = static_cast<double>(c.recoveries);
    m["ctx.avg_live_paths"] = ratio(static_cast<double>(c.livePathsSum),
                                    static_cast<double>(c.cycles));
    m["bpred.mispredicts"] = static_cast<double>(c.mispredicts);
    m["bpred.low_confidence"] = static_cast<double>(c.lowConfidence);
    m["memsys.loads_forwarded"] = static_cast<double>(c.loadsForwarded);
    m["memsys.load_blocked"] = static_cast<double>(c.loadBlocked);
}

void
reportSetupLayers(u64 golden_instrs, Metrics &m)
{
    m["workloads.build_s"] = tracer.selfPerRoot("workloads.build", "setup");
    m["arch.golden_s"] = tracer.selfPerRoot("arch.golden", "setup");
    m["arch.golden_mips"] =
        ratio(static_cast<double>(golden_instrs) / 1e6, m["arch.golden_s"]);
}

/** One pass over a workload's unit of work. */
struct Pass
{
    double wallS = 0;       //!< without the reference units run in it
    double cpuS = 0;        //!< host CPU of the timed simulations
    double simWallS = 0;    //!< wall of the timed simulations
    double scale = 1;       //!< HostRef scale factor measured with it
    Counts counts;

    /** Ends a pass begun at @p start_ns and @p mark. */
    void
    finish(u64 start_ns, const HostRef::Mark &mark, HostRef &ref)
    {
        wallS = secs(wallNs() - start_ns) - ref.spentSince(mark);
        scale = ref.scaleSince(mark);
    }

    double scaledWallS() const { return wallS * scale; }
    double kips() const { return ratio(counts.committed / 1e3, cpuS * scale); }
};

/** Committed kinstr per scaled CPU second over all of @p passes. */
double
kipsOf(const std::vector<Pass> &passes)
{
    double kinstr = 0, cpu_s = 0;
    for (const Pass &pass : passes) {
        kinstr += pass.counts.committed / 1e3;
        cpu_s += pass.cpuS * pass.scale;
    }
    return ratio(kinstr, cpu_s);
}

/**
 * Repeats @p run_pass until @p seconds of wall time have passed (at
 * least once). In a traced run every other pass has pp_prof on; those
 * land in @p profiled, the rest in @p plain.
 */
void
timedLoop(const Options &opts, const std::function<Pass(bool)> &run_pass,
          std::vector<Pass> &plain, std::vector<Pass> &profiled,
          ProfTotals &prof_totals)
{
    u64 start = wallNs();
    do {
        plain.push_back(run_pass(false));
        const Pass &last = plain.back();
        std::printf("pass %zu wall %.4f s cpu %.4f s scale %.4f "
                    "scaled kips %.1f\n",
                    plain.size(), last.wallS, last.cpuS, last.scale,
                    last.kips());
        std::fflush(stdout);
        if (opts.trace) {
            prof::setEnabled(true);
            prof::reset();
            profiled.push_back(run_pass(true));
            prof_totals.add(prof::snapshot());
            prof_totals.simWallS += profiled.back().simWallS;
            ++prof_totals.passes;
            prof::setEnabled(false);
        }
    } while (secs(wallNs() - start) < opts.seconds);
}

/** Scaled pass wall times in ms: the run latencies of the workloads
 *  whose run is one pass (see_spec, mono_spec, fig8_sweep). */
std::vector<double>
passLatenciesMs(const std::vector<Pass> &passes)
{
    std::vector<double> ms;
    for (const Pass &pass : passes)
        ms.push_back(pass.scaledWallS() * 1e3);
    return ms;
}

void
reportEndToEnd(const std::vector<Pass> &passes, double setup_s,
               size_t runs, const std::vector<double> &latency_ms,
               Metrics &m)
{
    double busy_s = 0;
    for (const Pass &pass : passes)
        busy_s += pass.scaledWallS();
    m["setup_s"] = setup_s;
    m["wall_s"] = busy_s / passes.size();
    m["kips"] = kipsOf(passes);
    m["runs_per_s"] = ratio(static_cast<double>(runs), busy_s);
    m["run_ms_p50"] = percentile(latency_ms, 50);
    m["run_ms_p90"] = percentile(latency_ms, 90);
}

/** Host times of the plain passes, unscaled: a traced run scales every
 *  per-layer time by the run's HostRef factor at the end. */
void
reportSimLayers(const std::vector<Pass> &plain,
                const std::vector<Pass> &profiled, Metrics &m)
{
    double cpu_s = 0;
    Counts all;
    for (const Pass &pass : plain) {
        cpu_s += pass.cpuS;
        all.add(pass.counts);
    }
    m["core.sim_cpu_s"] = cpu_s / plain.size();
    m["core.ns_per_cycle"] = ratio(cpu_s * 1e9, all.cycles);
    m["core.ns_per_fetched"] = ratio(cpu_s * 1e9, all.fetched);
    m["prof.overhead_frac"] =
        ratio(kipsOf(plain), kipsOf(profiled)) - 1.0;
    reportCounts(plain.front().counts, m);
}

// --- see_spec / mono_spec ---------------------------------------------

/** Checks that every golden run of @p suites halted; returns the mean
 *  golden instructions of a suite. */
u64
checkGoldens(const std::vector<WorkloadSet> &suites, Ledger &ledger)
{
    u64 instrs = 0;
    for (const WorkloadSet &suite : suites) {
        for (size_t w = 0; w < suite.size(); ++w) {
            ledger.check(suite.goldens[w].halted,
                         suite.infos[w].name + ": golden run did not halt");
            instrs += suite.goldens[w].instructions;
        }
    }
    return instrs / suites.size();
}

void
runSpec(const Options &opts, HostRef &ref, Ledger &ledger, Metrics &m)
{
    bool see = opts.workload == "see_spec";
    SimConfig cfg = see ? SimConfig::seeJrs() : SimConfig::monopath();

    double setup_s = 0;
    std::vector<WorkloadSet> suites = buildSuites(opts.seed, ref, setup_s);
    u64 golden_instrs = checkGoldens(suites, ledger);

    std::vector<std::vector<Counts>> reference(kSuites);
    unsigned passes = 0;
    // Pass k runs suite k mod kSuites; a profiled pass re-runs the suite
    // of the plain pass before it, so prof.overhead_frac compares
    // identical work.
    auto run_pass = [&](bool profiled) {
        SpanScope span(profiled ? "pass.profiled" : "pass");
        size_t k = (profiled ? passes - 1 : passes++) % kSuites;
        const WorkloadSet &suite = suites[k];
        Pass pass;
        HostRef::Mark mark = ref.mark();
        u64 start = wallNs();
        for (size_t w = 0; w < suite.size(); ++w) {
            u64 t0 = wallNs(), c0 = threadCpuNs();
            SimResult r;
            {
                SpanScope sim("core.simulate");
                r = simulate(suite.programs[w], cfg, suite.goldens[w]);
            }
            pass.cpuS += secs(threadCpuNs() - c0);
            double sim_s = secs(wallNs() - t0);
            pass.simWallS += sim_s;
            ref.owe(sim_s);
            Counts counts = Counts::of(r.stats);
            if (reference[k].size() == w)
                reference[k].push_back(counts);
            ledger.check(r.verified && counts == reference[k][w],
                         suite.infos[w].name +
                             ": unverified, or stats differ from the "
                             "first pass");
            pass.counts.add(counts);
        }
        pass.finish(start, mark, ref);
        return pass;
    };

    std::vector<Pass> plain, profiled;
    ProfTotals prof_totals;
    timedLoop(opts, run_pass, plain, profiled, prof_totals);

    if (opts.seed == kFigureSeed && kScale == 1.0) {
        const Counts &c = plain.front().counts;
        bool ok = see ? c.committed == kSeeCommitted && c.cycles == kSeeCycles
                      : c.cycles == kMonoCycles;
        ledger.check(ok, "cross-check against the ppsim figure totals: " +
                             std::to_string(c.committed) + " committed, " +
                             std::to_string(c.cycles) + " cycles");
    }

    if (!opts.trace) {
        reportEndToEnd(plain, setup_s, plain.size(), passLatenciesMs(plain),
                       m);
        return;
    }
    reportSetupLayers(golden_instrs, m);
    reportSimLayers(plain, profiled, m);
    reportProf(prof_totals, m);
}

// --- fuzz_oracle ------------------------------------------------------

struct FuzzProgram
{
    Program program;
    InterpResult golden;
};

FuzzProgram
makeFuzzProgram(const testkit::ProgenOptions &preset, u64 seed)
{
    testkit::GenPlan plan;
    {
        SpanScope span("testkit.buildPlan");
        plan = testkit::buildPlan(preset, seed);
    }
    FuzzProgram fp;
    {
        SpanScope span("testkit.emitPlan");
        fp.program = testkit::emitPlan(plan);
    }
    {
        SpanScope span("arch.golden");
        fp.golden = runGolden(fp.program);
    }
    return fp;
}

void
runFuzz(const Options &opts, HostRef &ref, Ledger &ledger, Metrics &m)
{
    const testkit::ProgenOptions preset = testkit::presetMixed();
    std::vector<SimConfig> cfgs = {SimConfig::seeJrs(),
                                   SimConfig::monopath()};
    if (opts.plantFault) {
        for (SimConfig &cfg : cfgs)
            cfg.bugCorruptStoreAbove = testkit::outputBase;
    }

    // Set-up: progen and golden runs of the first pass's programs.
    double setup_s = 0;
    std::vector<FuzzProgram> first = repeatSetup(
        [&](int) {
            SpanScope setup("setup");
            std::vector<FuzzProgram> batch;
            for (unsigned i = 0; i < kFuzzBatch; ++i)
                batch.push_back(makeFuzzProgram(preset, opts.seed + i));
            return batch;
        },
        1, ref, setup_s)[0];
    u64 golden_instrs = 0;
    for (const FuzzProgram &fp : first)
        golden_instrs += fp.golden.instructions;

    std::vector<double> latency_ms;
    u64 next_seed = opts.seed;
    size_t programs = 0;
    // A profiled pass re-runs the programs of the plain pass before it,
    // so prof.overhead_frac compares identical work.
    auto run_pass = [&](bool profiled) {
        SpanScope span(profiled ? "pass.profiled" : "pass");
        Pass pass;
        HostRef::Mark mark = ref.mark();
        size_t first_run = latency_ms.size();
        u64 start = wallNs();
        u64 first_seed = profiled ? next_seed - kFuzzBatch : next_seed;
        if (!profiled)
            next_seed += kFuzzBatch;
        for (unsigned i = 0; i < kFuzzBatch; ++i, ++programs) {
            u64 seed = first_seed + i;
            u64 t0 = wallNs();
            FuzzProgram fp = makeFuzzProgram(preset, seed);
            ledger.check(fp.golden.halted, "seed " + std::to_string(seed) +
                                               ": golden run did not halt");
            for (const SimConfig &cfg : cfgs) {
                u64 s0 = wallNs(), c0 = threadCpuNs();
                testkit::OracleResult r;
                {
                    SpanScope oracle("testkit.runOracle");
                    r = testkit::runOracle(fp.program, cfg, fp.golden);
                }
                pass.cpuS += secs(threadCpuNs() - c0);
                pass.simWallS += secs(wallNs() - s0);
                ledger.check(r.ok(),
                             "seed " + std::to_string(seed) + " config " +
                                 cfg.categoryName() + ": " +
                                 testkit::divergenceKindName(
                                     r.divergence.kind));
                pass.counts.add(Counts::of(r.stats));
            }
            u64 run_ns = wallNs() - t0;
            latency_ms.push_back(millis(run_ns));
            ref.owe(secs(run_ns));
        }
        pass.finish(start, mark, ref);
        for (size_t i = first_run; i < latency_ms.size(); ++i)
            latency_ms[i] *= pass.scale;
        return pass;
    };

    std::vector<Pass> plain, profiled;
    ProfTotals prof_totals;
    timedLoop(opts, run_pass, plain, profiled, prof_totals);

    if (!opts.trace) {
        reportEndToEnd(plain, setup_s, programs, latency_ms, m);
        return;
    }
    reportSetupLayers(golden_instrs, m);
    reportSimLayers(plain, profiled, m);
    reportProf(prof_totals, m);
    m["testkit.progen_s"] = tracer.selfPerRoot("testkit.buildPlan", "pass") +
                            tracer.selfPerRoot("testkit.emitPlan", "pass");
    m["testkit.oracle_s"] = tracer.selfPerRoot("testkit.runOracle", "pass");
    m["testkit.commits"] = static_cast<double>(plain.front().counts.committed);
    m["testkit.fetched"] = static_cast<double>(plain.front().counts.fetched);
}

// --- fig8_sweep -------------------------------------------------------

/** @p dir after removing anything left in it by an earlier run. */
std::string
emptied(const std::string &dir)
{
    fs::remove_all(dir);
    return dir;
}

/** A result cache in a fresh directory, removed again on destruction. */
class ScratchCache
{
  public:
    explicit ScratchCache(const std::string &dir)
        : path(emptied(dir)), cache(path)
    {
    }
    ~ScratchCache()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    ScratchCache(const ScratchCache &) = delete;
    ScratchCache &operator=(const ScratchCache &) = delete;

    std::string path;
    ResultCache cache;
};

void
runFig8(const Options &opts, unsigned workers, HostRef &ref, Ledger &ledger,
        Metrics &m)
{
    // Figure 8's six machines, in bench/fig8_baseline.cc's order.
    const std::vector<SimConfig> configs = {
        SimConfig::monopath(),           SimConfig::seeJrs(),
        SimConfig::seeOracleConfidence(), SimConfig::oraclePrediction(),
        SimConfig::dualPathJrs(),        SimConfig::dualPathOracleConfidence(),
    };

    double setup_s = 0;
    std::vector<WorkloadSet> suites = buildSuites(opts.seed, ref, setup_s);
    u64 golden_instrs = checkGoldens(suites, ledger);

    std::vector<std::vector<Counts>> reference(kSuites);
    unsigned cache_seq = 0;
    auto cache_dir = [&] {
        return opts.scratch + "/cache-" + std::to_string(cache_seq++);
    };

    // One runMatrix of suite @p k over @p cache, then the reference units
    // it owes (the workers leave the main thread nothing to interleave);
    // every result is checked against the first sweep of that suite. A
    // sweep's scale comes from the units run just before it (those the
    // previous sweep owed) and just after it.
    HostRef::Mark units_from = ref.mark();
    auto sweep = [&](ResultCache &cache, const char *name, size_t k) {
        const WorkloadSet &suite = suites[k];
        setResultCache(&cache);
        Pass pass;
        u64 t0 = wallNs(), c0 = processCpuNs();
        std::vector<std::vector<SimResult>> matrix;
        {
            SpanScope span(name);
            matrix = runMatrix(suite, configs);
        }
        pass.cpuS = secs(processCpuNs() - c0);
        pass.wallS = pass.simWallS = secs(wallNs() - t0);
        setResultCache(nullptr);
        size_t i = 0;
        for (size_t c = 0; c < configs.size(); ++c) {
            for (size_t w = 0; w < suite.size(); ++w, ++i) {
                const SimResult &r = matrix[c][w];
                Counts counts = Counts::of(r.stats);
                if (reference[k].size() == i)
                    reference[k].push_back(counts);
                ledger.check(r.verified && counts == reference[k][i],
                             configs[c].categoryName() + " " +
                                 suite.infos[w].name +
                                 ": unverified, or stats differ from the "
                                 "first sweep");
                pass.counts.add(counts);
            }
        }
        HostRef::Mark after = ref.mark();
        ref.owe(pass.simWallS);
        pass.scale = ref.scaleSince(units_from);
        units_from = after;
        return pass;
    };

    std::vector<double> warm_s, parallel_eff;
    std::vector<double> cache_counts;   // misses, stores, hits
    unsigned passes = 0;
    // Pass k sweeps suite k mod kSuites; a profiled pass re-sweeps the
    // suite of the plain pass before it.
    auto run_pass = [&](bool profiled) {
        size_t k = (profiled ? passes - 1 : passes++) % kSuites;
        ScratchCache cold(cache_dir());
        if (profiled)
            return sweep(cold.cache, "sim.runMatrix.profiled", k);
        Pass pass = sweep(cold.cache, "sim.runMatrix", k);
        if (!opts.trace)
            return pass;
        parallel_eff.push_back(ratio(pass.cpuS, pass.simWallS * workers));
        warm_s.push_back(sweep(cold.cache, "sim.runMatrix.warm", k).wallS);
        if (cache_counts.empty()) {
            cache_counts = {static_cast<double>(cold.cache.misses()),
                            static_cast<double>(cold.cache.stores()),
                            static_cast<double>(cold.cache.hits())};
        }
        // The cache calls runMatrix makes, timed one by one from here.
        ScratchCache copy(cache_dir());
        SpanScope root("cache");
        for (const SimConfig &cfg : configs) {
            for (const Program &program : suites[k].programs) {
                std::string key;
                {
                    SpanScope span("sim.keyFor");
                    key = ResultCache::keyFor(program, cfg);
                }
                std::optional<SimResult> hit;
                {
                    SpanScope span("sim.lookup");
                    hit = cold.cache.lookup(key);
                }
                ledger.check(hit.has_value(),
                             "warm cache lookup missed for " + program.name);
                if (hit) {
                    SpanScope span("sim.store");
                    copy.cache.store(key, *hit);
                }
            }
        }
        return pass;
    };

    std::vector<Pass> plain, profiled;
    ProfTotals prof_totals;
    timedLoop(opts, run_pass, plain, profiled, prof_totals);

    if (!opts.trace) {
        reportEndToEnd(plain, setup_s, plain.size(), passLatenciesMs(plain),
                       m);
        return;
    }
    // pp_prof counters are thread-local to runMatrix's workers, so the
    // stage rows stay 0 here; the profiled sweeps still give the
    // collection overhead.
    reportSetupLayers(golden_instrs, m);
    reportSimLayers(plain, profiled, m);
    m["sim.cache_key_s"] = tracer.selfPerRoot("sim.keyFor", "cache");
    m["sim.cache_lookup_s"] = tracer.selfPerRoot("sim.lookup", "cache");
    m["sim.cache_store_s"] = tracer.selfPerRoot("sim.store", "cache");
    m["sim.cache_misses"] = cache_counts[0];
    m["sim.cache_stores"] = cache_counts[1];
    m["sim.cache_hits"] = cache_counts[2];
    m["sim.warm_pass_s"] = median(warm_s);
    m["sim.parallel_eff"] = median(parallel_eff);
}

/**
 * Scales a traced run's host times, and the rates derived from them, by
 * the run's HostRef factor (untraced runs scale pass by pass instead).
 */
void
scaleHostTimes(const std::vector<MetricDef> &defs, double scale, Metrics &m)
{
    for (const MetricDef &def : defs) {
        std::string unit = def.unit;
        if (unit == "s" || unit.rfind("ns/", 0) == 0)
            m[def.name] *= scale;
        else if (unit == "Minstr/s")
            m[def.name] /= scale;
    }
}

// --- entry point ------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pp_perfbench: %s\n"
                 "usage: pp_perfbench --workload see_spec|mono_spec|"
                 "fuzz_oracle|fig8_sweep --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR] [--plant-fault]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--plant-fault") {
            opts.plantFault = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, &end, 0);
            if (*value == '\0' || *end != '\0' || *value == '-')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(opts.seconds > 0 && opts.seconds <= 600))
                usage("--seconds takes a number in (0, 600]");
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            opts.trace = value[0] == '1';
        } else if (arg == "--scratch") {
            opts.scratch = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opts.workload != "see_spec" && opts.workload != "mono_spec" &&
        opts.workload != "fuzz_oracle" && opts.workload != "fig8_sweep")
        usage("unknown or missing --workload");
    if (opts.plantFault && opts.workload != "fuzz_oracle")
        usage("--plant-fault applies to fuzz_oracle only");
    return opts;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);

    // The untraced passes must not pay for pp_prof, whatever PP_PROF
    // says, and fig8_sweep's pool is pinned to the usable CPUs.
    prof::setEnabled(false);
    unsigned workers = usableCpus();
    setenv("PP_BENCH_WORKERS", std::to_string(workers).c_str(), 1);
    tracer.enabled = opts.trace;

    printProvenance(opts, opts.workload == "fig8_sweep" ? workers : 1);
    std::fflush(stdout);

    HostRef ref;
    Ledger ledger;
    Metrics m;
    try {
        if (opts.workload == "fuzz_oracle")
            runFuzz(opts, ref, ledger, m);
        else if (opts.workload == "fig8_sweep")
            runFig8(opts, workers, ref, ledger, m);
        else
            runSpec(opts, ref, ledger, m);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pp_perfbench: run aborted: %s\n", e.what());
        return 1;
    }

    double run_scale = ref.scale();
    std::printf("host_ref units %u scale %.4f\n", ref.units(), run_scale);
    std::vector<MetricDef> defs;
    if (opts.trace) {
        defs = perLayerDefs();
        scaleHostTimes(defs, run_scale, m);
        tracer.write(opts.scratch + "/spans-" + opts.workload + ".jsonl");
    } else {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        m["peak_rss_mib"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
        defs = kEndToEnd;
    }

    std::string json;
    char buf[256];
    for (const MetricDef &def : defs) {
        double value = m.count(def.name) ? m[def.name] : 0.0;
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "pp_perfbench: %s is not finite\n",
                         def.name);
            value = 0.0;
        }
        std::printf("metric %-28s %.17g %s\n", def.name, value, def.unit);
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", def.name, value, def.unit);
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                ledger.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed),
                json.c_str());
    return 0;
}
