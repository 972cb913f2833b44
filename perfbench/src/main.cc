/**
 * @file
 * riobench: one workload of the simulator's benchmark in one process.
 *
 *   riobench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out PATH]
 *
 * A run is a few rounds. Each round sets up a fresh system (build the
 * machine, boot, populate; timed), runs its share of the timed phase
 * on this one thread, and checks the file system against the mirror.
 * The work of a run is fixed by the workload and --seconds, never by
 * the host clock, so every simulated metric and counter repeats
 * exactly at a fixed seed. The last line of stdout is the JSON result:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "client.hh"
#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "trace.hh"

namespace perfbench
{
namespace
{

namespace core = rio::core;
namespace os = rio::os;
namespace sim = rio::sim;

/** The simulated machine gets a fixed seed: the benchmark's seed only
 *  shapes the requests, never the system under test. */
constexpr u64 kMachineSeed = 1;

/** Each run makes at least this many rounds. A round builds a fresh
 *  system, so setup_s, the median of the rounds' set-ups, always has
 *  three samples. */
constexpr u64 kMinRounds = 3;

/** Requests per timed slice of a server round. ops_per_host_s is taken
 *  over slices, so a burst of host interference moves few of them. */
constexpr u64 kSliceRequests = 2500;

/** Requests in each crash_recover burst. */
constexpr u64 kBurst = 500;

struct Workload
{
    const char *name;
    os::SystemPreset preset;
    bool crashCycles;
    /** Ops per round: requests on the server workloads, cycles on
     *  crash_recover. */
    u64 opsPerRound;
    /** Rounds per --second, calibrated so a run measures about that
     *  long on the reference host (README.md). */
    double roundsPerSecond;
};

constexpr Workload kWorkloads[] = {
    {"server_rio", os::SystemPreset::RioProtected, false, 150000, 0.3},
    // ext3-ordered never waits for its queued data writes, so the disk
    // queue, and host memory, grow with every request of a round. Short
    // rounds keep the process near 600 MB and the slices of a round
    // alike.
    {"server_journal", os::SystemPreset::JournalOrdered, false, 50000,
     0.6},
    {"crash_recover", os::SystemPreset::RioProtected, true, 25, 0.2},
};

struct Args
{
    const Workload *workload = nullptr;
    u64 seed = 0;
    u64 seconds = 0;
    bool trace = false;
    std::string traceOut;
};

std::optional<u64>
parseU64(const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0')
        return std::nullopt;
    return value;
}

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload") {
            for (const Workload &w : kWorkloads) {
                if (std::strcmp(w.name, value) == 0)
                    args.workload = &w;
            }
        } else if (key == "--seed" || key == "--seconds" ||
                   key == "--trace") {
            const auto n = parseU64(value);
            if (!n)
                return std::nullopt;
            if (key == "--seed") {
                args.seed = *n;
                haveSeed = true;
            } else if (key == "--seconds") {
                args.seconds = *n;
                haveSeconds = *n >= 1 && *n <= 600;
            } else {
                args.trace = *n == 1;
                haveTrace = *n <= 1;
            }
        } else if (key == "--trace-out") {
            args.traceOut = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || args.workload == nullptr || !haveSeed ||
        !haveSeconds || !haveTrace)
        return std::nullopt;
    return args;
}

/** The system under test: one machine and the kernel booted on it. */
struct System
{
    os::KernelConfig kernelConfig;
    core::RioOptions rioOptions;
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::RioSystem> rio; ///< Null without Rio.
    std::unique_ptr<os::Kernel> kernel;
};

/** Build a fresh kernel (and Rio layer) on the system's machine. */
void
makeKernel(System &sys)
{
    if (sys.kernelConfig.rio)
        sys.rio = std::make_unique<core::RioSystem>(*sys.machine,
                                                    sys.rioOptions);
    sys.kernel =
        std::make_unique<os::Kernel>(*sys.machine, sys.kernelConfig);
}

/** @{ Deterministic counters read from the public stats getters. */
enum Counter
{
    BusLoads,
    BusStores,
    BusBytesCopied,
    TlbHits,
    TlbMisses,
    DiskBusyNs,
    DiskSectorsWritten,
    DiskReads,
    BufHits,
    BufMisses,
    BufSyncWrites,
    BufDelayedWrites,
    UbcHits,
    UbcMisses,
    UbcEvictions,
    RegistryUpdates,
    PageOpens,
    ShadowCopies,
    kCounters,
};

constexpr const char *kCounterNames[kCounters] = {
    "sim.bus_loads",
    "sim.bus_stores",
    "sim.bus_bytes_copied",
    "sim.tlb_hits",
    "sim.tlb_misses",
    "sim.disk_busy_ns",
    "sim.disk_sectors_written",
    "sim.disk_reads",
    "os.buf_hits",
    "os.buf_misses",
    "os.buf_sync_writes",
    "os.buf_delayed_writes",
    "os.ubc_hits",
    "os.ubc_misses",
    "os.ubc_evictions",
    "core.registry_updates",
    "core.page_opens",
    "core.shadow_copies",
};

using Counters = std::array<u64, kCounters>;

Counters
readCounters(System &sys)
{
    sim::Machine &m = *sys.machine;
    const auto &bus = m.bus().stats();
    const auto &disk = m.disk().stats();
    const auto &buf = sys.kernel->bufferCache().stats();
    const auto &ubc = sys.kernel->ubc().stats();
    Counters c{};
    c[BusLoads] = bus.loads;
    c[BusStores] = bus.stores;
    c[BusBytesCopied] = bus.bytesCopied;
    c[TlbHits] = m.tlb().hits();
    c[TlbMisses] = m.tlb().misses();
    c[DiskBusyNs] = disk.busyNs;
    c[DiskSectorsWritten] = disk.sectorsWritten;
    c[DiskReads] = disk.reads;
    c[BufHits] = buf.hits;
    c[BufMisses] = buf.misses;
    c[BufSyncWrites] = buf.diskWritesSync;
    c[BufDelayedWrites] = buf.delayedWrites;
    c[UbcHits] = ubc.hits;
    c[UbcMisses] = ubc.misses;
    c[UbcEvictions] = ubc.evictions;
    if (sys.rio) {
        c[RegistryUpdates] = sys.rio->stats().registryUpdates;
        c[PageOpens] = sys.rio->stats().pageOpens;
        c[ShadowCopies] = sys.rio->stats().shadowCopies;
    }
    return c;
}
/** @} */

/** What one crash-and-recover cycle did, summed over the run. */
struct RecoveryTotals
{
    u64 checksumsChecked = 0;
    u64 checksumMismatches = 0;
    u64 dumpBytes = 0;
    u64 entriesSeen = 0;
    u64 metadataRestored = 0;
    u64 fsckRepairs = 0;
    u64 damagedFiles = 0;
};

/** The value at rank floor(q * (n - 1)) of the sorted values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    return values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
}

/** The median; the lower middle value of an even count. */
double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** The highest percentile with at least ten samples beyond it: the
 *  eleventh-largest value. Needs at least 40 samples. */
double
tail(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() - 11];
}

double
ratio(u64 num, u64 den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** FNV-1a over every deterministic output, for the determinism check. */
struct Fingerprint
{
    u64 hash = 0xcbf29ce484222325ull;
    void
    add(u64 value)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

class Bench
{
  public:
    explicit Bench(const Args &args) : args_(args), work_(*args.workload)
    {}

    int run();

  private:
    bool setUp(u64 round);
    void serverPhase(u64 requests);
    void crashPhase(u64 cycles);
    bool checkRound();
    bool request(double &simUs);
    bool crashAndRecover();
    void report();
    void addMetric(const char *name, double value, const char *unit);

    Args args_;
    const Workload &work_;
    Tracer tracer_;
    System sys_;
    std::unique_ptr<Client> client_;

    /** Host seconds of each round's set-up and of its parts. */
    std::vector<double> setupS_, buildS_, bootS_, populateS_;
    /** Simulated latency of every op, and of requests by kind (us). */
    std::vector<double> opSimUs_;
    std::array<std::vector<double>, kOpKinds> kindSimUs_;
    /** Host time of each slice (server) or cycle (crash_recover)
     *  over all rounds, and its ops; odd slices are traced in a
     *  traced run. */
    std::vector<double> sliceS_;
    std::vector<u64> sliceOps_;
    Counters counters_{};
    RecoveryTotals recovery_;
    u64 requests_ = 0;
    u64 tracedRequests_ = 0;
    u64 attempted_ = 0;
    u64 failed_ = 0;
    u64 damagedAtEnd_ = 0;    ///< Files the end-of-round audits flagged.
    u64 plantedMissed_ = 0;   ///< Rounds whose planted mismatch slipped.
    u64 readMismatches_ = 0;
    u64 maxQueueDepth_ = 0;   ///< Disk queue at the end of a round.
    u64 simEndNsSum_ = 0;     ///< Final simulated clock of each round.
    std::string metricsJson_;
};

/** Tear the previous round's system down and build a fresh one:
 *  machine, boot with mkfs, populate. Each part is timed. */
bool
Bench::setUp(u64 round)
{
    client_.reset();
    sys_.kernel.reset();
    sys_.rio.reset();
    sys_.machine.reset();
    const auto t0 = hostNowNs();
    sys_.kernelConfig = os::systemPreset(work_.preset);
    sys_.rioOptions.protection = sys_.kernelConfig.protection;
    // Checksums are the Table 1 detection apparatus; the paper's
    // performance runs leave them off.
    sys_.rioOptions.maintainChecksums = work_.crashCycles;
    sys_.machine = std::make_unique<sim::Machine>(
        work_.crashCycles ? rio::harness::crashMachineConfig(kMachineSeed)
                          : rio::harness::perfMachineConfig(kMachineSeed));
    const auto t1 = hostNowNs();
    makeKernel(sys_);
    sys_.kernel->boot(sys_.rio.get(), true);
    const auto t2 = hostNowNs();
    // Every round draws its own requests from the run's seed.
    client_ = std::make_unique<Client>(args_.seed * 1000003 + round,
                                       tracer_);
    const bool ok = client_->populate(sys_.kernel->vfs());
    const auto t3 = hostNowNs();
    buildS_.push_back(static_cast<double>(t1 - t0) / 1e9);
    bootS_.push_back(static_cast<double>(t2 - t1) / 1e9);
    populateS_.push_back(static_cast<double>(t3 - t2) / 1e9);
    setupS_.push_back(static_cast<double>(t3 - t0) / 1e9);
    return ok;
}

/** Run one request; returns whether it succeeded and sets @p simUs
 *  to its simulated latency. */
bool
Bench::request(double &simUs)
{
    const rio::SimNs t0 = sys_.machine->clock().now();
    const Client::Step step = client_->step(sys_.kernel->vfs());
    simUs = static_cast<double>(sys_.machine->clock().now() - t0) / 1e3;
    kindSimUs_[static_cast<int>(step.kind)].push_back(simUs);
    ++requests_;
    if (tracer_.enabled())
        ++tracedRequests_;
    return step.ok;
}

void
Bench::serverPhase(u64 requests)
{
    const Counters before = readCounters(sys_);
    for (u64 slice = 0; slice < requests / kSliceRequests; ++slice) {
        tracer_.setEnabled(args_.trace && sliceS_.size() % 2 == 1);
        const auto t0 = hostNowNs();
        for (u64 i = 0; i < kSliceRequests; ++i) {
            tracer_.setRequest(attempted_);
            double us = 0;
            if (!request(us))
                ++failed_;
            opSimUs_.push_back(us);
            ++attempted_;
        }
        sliceS_.push_back(static_cast<double>(hostNowNs() - t0) / 1e9);
        sliceOps_.push_back(kSliceRequests);
    }
    const Counters after = readCounters(sys_);
    for (int c = 0; c < kCounters; ++c)
        counters_[c] += after[c] - before[c];
}

bool
Bench::crashAndRecover()
{
    sim::Machine &machine = *sys_.machine;
    const rio::SimNs crashAt = machine.clock().now();
    try {
        tracer_.call("sim.crash", Layer::Sim, [&] {
            machine.crash(sim::CrashCause::KernelPanic,
                          "benchmark: planned crash between syscalls");
        });
    } catch (const sim::CrashException &crash) {
        machine.noteCrash(crash.when());
    }
    // No fault was injected, so every cached page must still match
    // its registry checksum.
    const auto sweep = tracer_.call(
        "core.verify_checksums", Layer::Core,
        [&] { return sys_.rio->verifyChecksums(); });
    recovery_.checksumsChecked += sweep.checked;
    recovery_.checksumMismatches += sweep.mismatches;

    tracer_.call("sim.warm_reset", Layer::Sim, [&] {
        sys_.rio->deactivate();
        sys_.rio.reset();
        sys_.kernel.reset();
        machine.reset(sim::ResetKind::Warm);
    });
    core::WarmReboot warm(machine);
    warm.setIoPolicy(sys_.kernelConfig.ioRetry);
    core::WarmRebootReport report =
        tracer_.call("core.dump_restore_meta", Layer::Core,
                     [&] { return warm.dumpAndRestoreMetadata(); });
    tracer_.call("os.reboot", Layer::Os, [&] {
        makeKernel(sys_);
        sys_.kernel->boot(sys_.rio.get(), false);
    });
    tracer_.call("core.restore_data", Layer::Core, [&] {
        warm.restoreData(sys_.kernel->vfs(), report);
    });
    opSimUs_.push_back(
        static_cast<double>(machine.clock().now() - crashAt) / 1e3);

    recovery_.dumpBytes += report.dumpBytes;
    recovery_.entriesSeen += report.entriesSeen;
    recovery_.metadataRestored += report.metadataRestored;
    if (sys_.kernel->lastFsck())
        recovery_.fsckRepairs += sys_.kernel->lastFsck()->errorsFixed();
    const u64 damaged = client_->audit(sys_.kernel->vfs()).size();
    recovery_.damagedFiles += damaged;
    return damaged == 0 && sweep.mismatches == 0;
}

void
Bench::crashPhase(u64 cycles)
{
    for (u64 cycle = 0; cycle < cycles; ++cycle) {
        tracer_.setEnabled(args_.trace && sliceS_.size() % 2 == 1);
        tracer_.setRequest(attempted_);
        const auto t0 = hostNowNs();
        bool ok = true;
        {
            Tracer::Scope span(tracer_, "client.cycle", Layer::Client);
            const Counters before = readCounters(sys_);
            for (u64 i = 0; i < kBurst; ++i) {
                double us = 0;
                ok = request(us) && ok;
            }
            const Counters after = readCounters(sys_);
            for (int c = 0; c < kCounters; ++c)
                counters_[c] += after[c] - before[c];
            ok = crashAndRecover() && ok;
        }
        sliceS_.push_back(static_cast<double>(hostNowNs() - t0) / 1e9);
        sliceOps_.push_back(1);
        ++attempted_;
        if (!ok)
            ++failed_;
    }
}

void
Bench::addMetric(const char *name, double value, const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  metricsJson_.empty() ? "" : ", ", name, value, unit);
    metricsJson_ += buf;
    std::printf("  %-36s %16.6f %s\n", name, value, unit);
}

/** The end-of-round checks, outside the timed phase and the trace:
 *  the audit must be clean and must catch a planted mismatch. */
bool
Bench::checkRound()
{
    tracer_.setEnabled(false);
    rio::os::Vfs &vfs = sys_.kernel->vfs();
    const std::vector<std::string> damaged = client_->audit(vfs);
    for (const std::string &path : damaged)
        std::printf("audit: %s differs from the mirror\n", path.c_str());
    const bool planted = client_->plantedMismatchCaught(vfs);
    damagedAtEnd_ += damaged.size();
    plantedMissed_ += planted ? 0 : 1;
    readMismatches_ += client_->readMismatches();
    maxQueueDepth_ = std::max<u64>(maxQueueDepth_,
                                   sys_.machine->disk().queueDepth());
    simEndNsSum_ += sys_.machine->clock().now();
    return damaged.empty() && planted && client_->readMismatches() == 0;
}

int
Bench::run()
{
    const u64 rounds = std::max<u64>(
        kMinRounds, static_cast<u64>(work_.roundsPerSecond *
                                         static_cast<double>(args_.seconds) +
                                     0.5));
    bool correct = true;
    for (u64 round = 0; round < rounds; ++round) {
        if (!setUp(round)) {
            std::fprintf(stderr, "riobench: populate failed\n");
            return 1;
        }
        if (work_.crashCycles)
            crashPhase(work_.opsPerRound);
        else
            serverPhase(work_.opsPerRound);
        correct = checkRound() && correct;
    }
    correct = correct && recovery_.damagedFiles == 0 &&
              recovery_.checksumMismatches == 0;
    std::printf("checks over %llu rounds: %llu files damaged at round "
                "ends, %llu planted mismatches missed, %llu read "
                "mismatches, %llu files damaged after recovery, %llu "
                "checksum mismatches\n",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(damagedAtEnd_),
                static_cast<unsigned long long>(plantedMissed_),
                static_cast<unsigned long long>(readMismatches_),
                static_cast<unsigned long long>(recovery_.damagedFiles),
                static_cast<unsigned long long>(
                    recovery_.checksumMismatches));
    report();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                metricsJson_.c_str());
    return 0;
}

void
Bench::report()
{
    const u64 ops = attempted_;
    const u64 cycles = work_.crashCycles ? attempted_ : 0;
    std::printf("workload %s, seed %llu: %llu ops (%llu requests), "
                "%zu slices\n",
                work_.name, static_cast<unsigned long long>(args_.seed),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(requests_),
                sliceS_.size());

    // Deterministic outputs: counters, recovery totals, every
    // simulated latency. They repeat exactly at a fixed seed.
    Fingerprint print;
    std::printf("counters over the requests of the timed phase:\n");
    for (int c = 0; c < kCounters; ++c) {
        std::printf("  %-36s %llu\n", kCounterNames[c],
                    static_cast<unsigned long long>(counters_[c]));
        print.add(counters_[c]);
    }
    for (u64 v : {recovery_.checksumsChecked, recovery_.dumpBytes,
                  recovery_.entriesSeen, recovery_.metadataRestored,
                  recovery_.fsckRepairs, requests_, ops, maxQueueDepth_,
                  simEndNsSum_})
        print.add(v);
    for (double us : opSimUs_)
        print.add(static_cast<u64>(us * 1e3));
    for (const auto &kind : kindSimUs_)
        for (double us : kind)
            print.add(static_cast<u64>(us * 1e3));
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(print.hash));

    std::vector<double> rates;
    for (std::size_t i = 0; i < sliceS_.size(); ++i)
        rates.push_back(static_cast<double>(sliceOps_[i]) / sliceS_[i]);

    std::printf("host ops/s by slice: min %.1f, 10th percentile %.1f, "
                "median %.1f, max %.1f\n",
                *std::min_element(rates.begin(), rates.end()),
                quantile(rates, 0.1), median(rates),
                *std::max_element(rates.begin(), rates.end()));

    if (!args_.trace) {
        std::printf("end-to-end metrics:\n");
        // The host's speed flips between states for seconds at a time;
        // the rate nine slices in ten reach is far steadier across runs
        // than the median slice (README.md).
        addMetric("ops_per_host_s", quantile(rates, 0.1), "1/s");
        addMetric("sim_p50_us", median(opSimUs_), "us");
        addMetric("sim_tail_us", tail(opSimUs_), "us");
        addMetric("setup_s", median(setupS_), "s");
        addMetric("peak_rss_mib", peakRssMib(), "MiB");
        return;
    }

    // Traced run: odd slices were traced, even ones were not.
    std::vector<double> untracedS, tracedS;
    u64 tracedOps = 0;
    for (std::size_t i = 0; i < sliceS_.size(); ++i) {
        const double perOp = sliceS_[i] / static_cast<double>(sliceOps_[i]);
        if (i % 2 == 1) {
            tracedS.push_back(perOp);
            tracedOps += sliceOps_[i];
        } else {
            untracedS.push_back(perOp);
        }
    }
    const double perTracedOp = 1.0 / static_cast<double>(tracedOps);
    const double perTracedRequest =
        1.0 / static_cast<double>(tracedRequests_);
    auto sumUs = [&](const char *name) {
        double sum = 0;
        for (double us : tracer_.durationsUs(name))
            sum += us;
        return sum;
    };
    auto medianMs = [&](const char *name) {
        return median(tracer_.durationsUs(name)) / 1e3;
    };
    const double reqs = static_cast<double>(requests_);
    auto perReq = [&](Counter c) {
        return static_cast<double>(counters_[c]) / reqs;
    };
    auto perCycle = [&](u64 total) {
        return cycles == 0 ? 0.0
                           : static_cast<double>(total) /
                                 static_cast<double>(cycles);
    };

    std::printf("per-layer metrics:\n");
    addMetric("client.payload_host_us",
              sumUs("client.payload") * perTracedRequest, "us");
    addMetric("client.mirror_host_us",
              sumUs("client.mirror") * perTracedRequest, "us");
    for (const char *call : {"open", "write", "read", "close",
                             "truncate"}) {
        const std::string span = std::string("os.sys_") + call;
        const std::string name = span + "_host_us";
        addMetric(name.c_str(), median(tracer_.durationsUs(span)),
                  "us");
    }
    for (int k = 0; k < kOpKinds; ++k) {
        const std::string name = std::string("client.") +
                                 opKindName(static_cast<OpKind>(k)) +
                                 "_sim_p50_us";
        addMetric(name.c_str(), median(kindSimUs_[k]), "us");
    }
    addMetric("sim.bus_loads_per_op", perReq(BusLoads), "count");
    addMetric("sim.bus_stores_per_op", perReq(BusStores), "count");
    addMetric("sim.bus_bytes_copied_per_op", perReq(BusBytesCopied),
              "B");
    addMetric("sim.tlb_hit_ratio",
              ratio(counters_[TlbHits],
                    counters_[TlbHits] + counters_[TlbMisses]),
              "ratio");
    addMetric("sim.disk_busy_ms_per_kop",
              static_cast<double>(counters_[DiskBusyNs]) / 1e6 /
                  (reqs / 1e3),
              "ms");
    addMetric("sim.disk_sectors_written_per_op",
              perReq(DiskSectorsWritten), "count");
    addMetric("sim.disk_reads_per_op", perReq(DiskReads), "count");
    addMetric("sim.disk_queue_depth_end",
              static_cast<double>(maxQueueDepth_),
              "count");
    addMetric("os.buf_hit_ratio",
              ratio(counters_[BufHits],
                    counters_[BufHits] + counters_[BufMisses]),
              "ratio");
    addMetric("os.ubc_hit_ratio",
              ratio(counters_[UbcHits],
                    counters_[UbcHits] + counters_[UbcMisses]),
              "ratio");
    addMetric("os.ubc_evictions_per_op", perReq(UbcEvictions), "count");
    addMetric("os.buf_sync_writes_per_op", perReq(BufSyncWrites),
              "count");
    addMetric("os.buf_delayed_writes_per_op", perReq(BufDelayedWrites),
              "count");
    addMetric("core.registry_updates_per_op", perReq(RegistryUpdates),
              "count");
    addMetric("core.page_opens_per_op", perReq(PageOpens), "count");
    addMetric("core.shadow_copies_per_op", perReq(ShadowCopies),
              "count");
    addMetric("sim.machine_build_s", median(buildS_), "s");
    addMetric("os.boot_s", median(bootS_), "s");
    addMetric("client.populate_s", median(populateS_), "s");
    addMetric("core.verify_checksums_ms",
              medianMs("core.verify_checksums"), "ms");
    addMetric("sim.warm_reset_ms", medianMs("sim.warm_reset"), "ms");
    addMetric("core.dump_restore_meta_ms",
              medianMs("core.dump_restore_meta"), "ms");
    addMetric("os.reboot_ms", medianMs("os.reboot"), "ms");
    addMetric("core.restore_data_ms", medianMs("core.restore_data"),
              "ms");
    addMetric("client.audit_ms", medianMs("client.audit"), "ms");
    addMetric("core.dump_bytes_per_cycle", perCycle(recovery_.dumpBytes),
              "B");
    addMetric("core.entries_seen_per_cycle",
              perCycle(recovery_.entriesSeen), "count");
    addMetric("core.metadata_restored_per_cycle",
              perCycle(recovery_.metadataRestored), "count");
    addMetric("os.fsck_repairs_per_cycle",
              perCycle(recovery_.fsckRepairs), "count");

    // Self time of each layer per traced op.
    const std::vector<std::int64_t> self = tracer_.selfTimeNs();
    for (int l = 0; l < kLayers; ++l) {
        const std::string name =
            std::string(layerName(static_cast<Layer>(l))) +
            ".self_host_us_per_op";
        addMetric(name.c_str(),
                  static_cast<double>(self[l]) / 1e3 * perTracedOp,
                  "us");
    }
    addMetric("client.trace_overhead_pct",
              (median(tracedS) / median(untracedS) - 1.0) * 100.0, "%");

    if (!args_.traceOut.empty()) {
        if (tracer_.writeChromeTrace(args_.traceOut))
            std::printf("trace: %zu spans recorded, the first %zu "
                        "written to %s\n",
                        tracer_.spans().size(),
                        std::min(tracer_.spans().size(),
                                 Tracer::kMaxWrittenSpans),
                        args_.traceOut.c_str());
        else
            std::printf("trace: could not write %s\n",
                        args_.traceOut.c_str());
    }
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const auto args = perfbench::parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: riobench --workload server_rio|"
                     "server_journal|crash_recover --seed N --seconds "
                     "S --trace 0|1 [--trace-out PATH]\n");
        return 2;
    }
    perfbench::Bench bench(*args);
    return bench.run();
}
