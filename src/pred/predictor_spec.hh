/**
 * @file
 * A value-type description of "which phase-change predictor" that
 * every consumer — the eval drivers, the figure harnesses, the tpcp
 * CLI, the adapt controller and the resilience harness — can hold,
 * name, compare and turn into a live predictor. Centralizing the
 * name registry here keeps `tpcp predict --predictor=...`, the
 * fig8 sweep and the adapt presets agreeing on what "tage" means.
 */

#ifndef TPCP_PRED_PREDICTOR_SPEC_HH
#define TPCP_PRED_PREDICTOR_SPEC_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pred/change_predictor.hh"
#include "pred/predictor_base.hh"
#include "pred/tage_predictor.hh"

namespace tpcp::pred
{

/** Which predictor family a spec instantiates. */
enum class PredictorKind
{
    Table, ///< the paper's Markov/RLE tables
    Tage,  ///< geometric-history tagged tables
};

/** A constructible description of one phase-change predictor. */
struct PredictorSpec
{
    PredictorKind kind = PredictorKind::Table;
    ChangePredictorConfig table = ChangePredictorConfig::rle(2);
    TagePredictorConfig tage;

    /** The active family's display name. */
    const std::string &displayName() const;

    /** Instantiates a fresh predictor per this spec. */
    std::unique_ptr<PhaseChangePredictor> make() const;

    static PredictorSpec
    tableSpec(const ChangePredictorConfig &cfg)
    {
        PredictorSpec s;
        s.kind = PredictorKind::Table;
        s.table = cfg;
        return s;
    }

    static PredictorSpec
    tageSpec(const TagePredictorConfig &cfg = {})
    {
        PredictorSpec s;
        s.kind = PredictorKind::Tage;
        s.tage = cfg;
        return s;
    }
};

/**
 * Looks a spec up by CLI name ("markov1", "rle2", "last4markov1",
 * "tage", ...). Returns nullopt for "lastvalue" (no
 * change predictor at all) and raises tpcp::Error on an unknown
 * name, listing the valid ones.
 */
std::optional<PredictorSpec> predictorSpecByName(
    const std::string &name);

/** Every name predictorSpecByName() accepts, in listing order. */
const std::vector<std::string> &predictorSpecNames();

} // namespace tpcp::pred

#endif // TPCP_PRED_PREDICTOR_SPEC_HH
