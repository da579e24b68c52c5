/**
 * @file
 * In-memory span recording for the traced run.
 *
 * A span brackets one call from the benchmark into a layer of the
 * program: its name (layer-prefixed, e.g. "serve.registry.deliver"),
 * start, end, and the span open on the same thread when it began
 * (its parent). Spans are kept per thread in memory; on close, each
 * span's self time (its duration minus the part covered by its
 * child spans) is folded into a per-name aggregate, and the first
 * kSpanLogLimit spans since the last reset (over all threads) are
 * also kept verbatim so they can be written out at exit. Nothing inside the program is
 * instrumented: spans exist only in the benchmark's own code.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hh"

namespace perfbench
{

/** Spans kept verbatim for the span log between resets. */
inline constexpr std::size_t kSpanLogLimit = 1u << 14;

/** Totals of every span with one name. */
struct SpanAggregate
{
    std::uint64_t count = 0;
    /** Sum of durations, ns. */
    double totalNs = 0.0;
    /** Sum of self times (duration minus child spans), ns. */
    double selfNs = 0.0;
};

/** Name -> totals, merged over threads. */
using SpanSummary = std::map<std::string, SpanAggregate>;

/** Process-wide span store. Threads register on first use. */
class Tracer
{
  public:
    /** Opens a span on the calling thread. */
    static void begin(const char *name);
    /** Closes the innermost open span on the calling thread. */
    static void end();

    /** Aggregates of every closed span since the last reset(),
     * merged over threads. Call while no span is open. */
    static SpanSummary summary();

    /** Drops all recorded spans. Call while no span is open. */
    static void reset();

    /** Appends the verbatim span log (JSON lines: name, thread,
     * start/end ns from the first span, parent index or -1) to
     * @p path, tagged with @p pass. Returns false on I/O error. */
    static bool appendLog(const std::string &path,
                          const std::string &pass);
};

/** RAII span: begin() on construction, end() on destruction; does
 * nothing when constructed with @p on false. */
class Span
{
  public:
    explicit Span(const char *name, bool on = true) : on_(on)
    {
        if (on_)
            Tracer::begin(name);
    }
    ~Span()
    {
        if (on_)
            Tracer::end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool on_;
};

/** Total self time of spans whose names do not start with "bench."
 * (the benchmark's own root spans), ns. */
double attributedNs(const SpanSummary &s);

/** Self-time sums per layer: the name up to its second dot
 * ("serve.registry.deliver" -> "serve.registry"), or the whole name
 * ("uarch" -> "uarch"). */
std::map<std::string, double> selfByLayer(const SpanSummary &s);

/** Aggregate for @p name, or an empty one. */
SpanAggregate spanOf(const SpanSummary &s, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
