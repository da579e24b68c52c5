/**
 * @file
 * Conditional-branch direction predictors: bimodal, gshare and the
 * Table-1 hybrid (8-bit-history gshare with 2k 2-bit counters plus an
 * 8k bimodal predictor, combined by a chooser).
 */

#ifndef TPCP_UARCH_BRANCH_PRED_HH
#define TPCP_UARCH_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "uarch/machine_config.hh"

namespace tpcp::uarch
{

/** Aggregate direction-prediction statistics. */
struct BranchPredStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    double
    mispredictRate() const
    {
        return lookups ? static_cast<double>(mispredicts) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** Abstract direction predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predicts the direction of the branch at @p pc. */
    virtual bool predict(Addr pc) = 0;

    /** Trains the predictor with the resolved direction. */
    virtual void update(Addr pc, bool taken) = 0;

    /**
     * Convenience: predict, compare against @p taken, train, track
     * statistics. Returns true when the prediction was wrong.
     */
    bool
    predictAndTrain(Addr pc, bool taken)
    {
        bool pred = predict(pc);
        update(pc, taken);
        ++stats_.lookups;
        const bool wrong = pred != taken;
        stats_.mispredicts += wrong;
        return wrong;
    }

    const BranchPredStats &stats() const { return stats_; }

    /** Clears predictor state and statistics. */
    virtual void reset() = 0;

  protected:
    void clearStats() { stats_ = BranchPredStats{}; }

  private:
    BranchPredStats stats_;
};

/** PC-indexed table of 2-bit counters. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void reset() override;

  private:
    unsigned index(Addr pc) const;

    std::vector<std::uint8_t> table;
    std::uint64_t mask;
};

/** Global-history XOR PC indexed table of 2-bit counters. */
class GsharePredictor : public BranchPredictor
{
  public:
    GsharePredictor(unsigned entries, unsigned history_bits);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void reset() override;

  private:
    unsigned index(Addr pc) const;

    std::vector<std::uint8_t> table;
    std::uint64_t mask;
    std::uint64_t history = 0;
    std::uint64_t historyMask;
};

/**
 * The Table-1 hybrid predictor: a chooser table of 2-bit counters
 * selects between the gshare and bimodal components per branch; both
 * components always train, and the chooser trains toward whichever
 * component was correct when they disagree.
 */
class HybridPredictor final : public BranchPredictor
{
  public:
    explicit HybridPredictor(const BranchPredConfig &config);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void reset() override;

  private:
    unsigned chooserIndex(Addr pc) const;

    GsharePredictor gshare;
    BimodalPredictor bimodal;
    std::vector<std::uint8_t> chooser;
    std::uint64_t chooserMask;
    // Component predictions latched by predict() for update().
    bool lastGshare = false;
    bool lastBimodal = false;
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_BRANCH_PRED_HH
