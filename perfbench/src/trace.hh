/**
 * @file
 * Host-time spans around the benchmark's calls into each layer of the
 * simulator. Spans are held in memory while the workload runs and are
 * written out (Chrome trace-event JSON, per-layer self time) only
 * after the timed phase, so the run itself pays two clock reads and a
 * vector push per span, and nothing at all while tracing is off.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layers a span can be charged to: the benchmark's own client
 *  and the simulator's modules, named as under src/. */
enum class Layer : std::uint8_t
{
    Client,
    Os,
    Core,
    Sim,
};

constexpr int kLayers = 4;

const char *layerName(Layer layer);

class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = ~0u;

    struct Span
    {
        const char *name = nullptr; ///< Static "layer.call" string.
        Layer layer = Layer::Client;
        std::uint32_t parent = kNoParent; ///< Index of the caller span.
        std::uint64_t request = 0;        ///< Op the span belongs to.
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** Opens a span on construction and closes it on destruction;
     *  does nothing while the tracer is disabled. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, Layer layer)
            : tracer_(tracer.enabled_ ? &tracer : nullptr)
        {
            if (tracer_ != nullptr)
                index_ = tracer_->open(name, layer);
        }
        ~Scope()
        {
            if (tracer_ != nullptr)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::uint32_t index_ = 0;
    };

    /** Run @p fn inside a span and return what it returns. */
    template <typename Fn>
    auto
    call(const char *name, Layer layer, Fn &&fn)
    {
        Scope span(*this, name, layer);
        return fn();
    }

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Tag the spans opened from now on with op number @p request. */
    void setRequest(std::uint64_t request) { request_ = request; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Host durations in microseconds of every span called @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Per-layer self time in nanoseconds: each span's duration minus
     *  the part its child spans cover, summed by layer. */
    std::vector<std::int64_t> selfTimeNs() const;

    /** A Chrome trace holds at most this many spans (about 30 MB);
     *  the per-layer figures use every span recorded. */
    static constexpr std::size_t kMaxWrittenSpans = 250000;

    /** Write the spans, in the order they opened, as a Chrome
     *  trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::uint32_t open(const char *name, Layer layer);
    void close(std::uint32_t index);

    bool enabled_ = false;
    std::uint64_t request_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
