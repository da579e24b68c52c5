/**
 * @file
 * The abstract phase-change-predictor contract.
 *
 * Every phase-change predictor — the paper's Markov/RLE tables
 * (ChangePredictor) and the geometric-history TAGE predictor
 * (TagePredictor) — consumes the same phase-ID interval
 * stream through observe() and answers predict() with a
 * ChangePrediction. The composite NextPhasePredictor, the offline
 * eval drivers, the fault injector and the checkpoint serializer
 * all operate on this interface, so a new predictor plugs into
 * fig7/fig8, `tpcp predict`, the adapt controller and the
 * resilience harness by implementing it.
 */

#ifndef TPCP_PRED_PREDICTOR_BASE_HH
#define TPCP_PRED_PREDICTOR_BASE_HH

#include <optional>
#include <string>

#include "common/types.hh"

namespace tpcp
{
class Rng;
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{

struct ChangePrediction;
struct ChangeOutcome;

/**
 * Validated set count of an @p entries x @p ways predictor table.
 * Raises tpcp::Error when the geometry is degenerate or when
 * entries is not a multiple of ways — integer truncation would
 * otherwise silently drop capacity (e.g. 33 entries / 4 ways would
 * build a 32-entry table with no diagnostic).
 */
unsigned predictorNumSets(unsigned entries, unsigned ways,
                          const char *what);

/**
 * Interface of a phase-change predictor over the phase-ID interval
 * stream.
 *
 * Semantics shared by all implementations:
 *  - observe() is called once per interval with the interval's
 *    classified phase ID; it returns a ChangeOutcome record exactly
 *    when the observation was a phase change (for Figure-8
 *    statistics), std::nullopt otherwise.
 *  - predict() answers from the *current* history state without
 *    mutating anything. A tableHit doubles as a change-is-imminent
 *    signal when the predictor indexes by the current run position
 *    (the RLE predictors and both learned predictors do).
 */
class PhaseChangePredictor
{
  public:
    virtual ~PhaseChangePredictor() = default;

    /** Predicts the outcome of the next phase change. */
    virtual ChangePrediction predict() const = 0;

    /** Observes the next interval's phase; returns the outcome
     * record when this observation was a phase change. */
    virtual std::optional<ChangeOutcome> observe(PhaseId actual) = 0;

    /** The predictor's configured display name. */
    virtual const std::string &name() const = 0;

    /** True when correctness accepts any candidate outcome (the
     * Last-4/Top-4 acceptance rule) rather than the primary only. */
    virtual bool acceptAny() const = 0;

    /**
     * Fault hook: corrupts one random element of live predictor
     * state. Unmitigated, a raw bit flips and the structure silently
     * mislearns; mitigated, the error is detected (ECC model) and
     * the affected element is invalidated/zeroed so the structure
     * degrades to retraining. Returns false when the predictor holds
     * no corruptible state yet.
     */
    virtual bool injectFault(Rng &rng, bool invalidate) = 0;

    /** Appends predictor state to a checkpoint snapshot. */
    virtual void saveState(StateWriter &w) const = 0;

    /** Restores predictor state from a checkpoint snapshot; loaded
     * counters are clamped to their hardware ranges. */
    virtual void loadState(StateReader &r) = 0;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_PREDICTOR_BASE_HH
