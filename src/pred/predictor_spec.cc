#include "pred/predictor_spec.hh"

#include "common/status.hh"

namespace tpcp::pred
{

const std::string &
PredictorSpec::displayName() const
{
    switch (kind) {
      case PredictorKind::Tage:
        return tage.name;
      case PredictorKind::Table:
      default:
        return table.name;
    }
}

std::unique_ptr<PhaseChangePredictor>
PredictorSpec::make() const
{
    switch (kind) {
      case PredictorKind::Tage:
        return std::make_unique<TagePredictor>(tage);
      case PredictorKind::Table:
      default:
        return std::make_unique<ChangePredictor>(table);
    }
}

const std::vector<std::string> &
predictorSpecNames()
{
    static const std::vector<std::string> names = {
        "lastvalue",    "markov1",     "markov2",
        "rle1",         "rle2",        "top4markov1",
        "last4markov1", "tage",
    };
    return names;
}

std::optional<PredictorSpec>
predictorSpecByName(const std::string &name)
{
    if (name == "lastvalue")
        return std::nullopt;
    if (name == "markov1")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::markov(1));
    if (name == "markov2")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::markov(2));
    if (name == "rle1")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::rle(1));
    if (name == "rle2")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::rle(2));
    if (name == "top4markov1")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::markov(1, PayloadView::Top4));
    if (name == "last4markov1")
        return PredictorSpec::tableSpec(
            ChangePredictorConfig::markov(1, PayloadView::Last4));
    if (name == "tage")
        return PredictorSpec::tageSpec();

    std::string known;
    for (const std::string &n : predictorSpecNames())
        known += known.empty() ? n : ", " + n;
    tpcp_raise("unknown predictor '", name, "' (known: ", known,
               ")");
}

} // namespace tpcp::pred
