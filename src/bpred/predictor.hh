/**
 * @file
 * Branch predictor simulation: a bimodal table of 2-bit saturating
 * counters, used by the pipeline simulator and the hardware counter
 * model to turn synthetic branch streams into
 * mispredictions-per-kilo-instruction, the event the interval model
 * charges at the pipeline-depth penalty.
 */

#ifndef LHR_BPRED_PREDICTOR_HH
#define LHR_BPRED_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace lhr
{

/** Per-pc table of 2-bit saturating counters. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(int table_bits = 12);

    /** Predict the outcome of the branch at pc. */
    bool predict(uint64_t pc) const { return counters[index(pc)] >= 2; }

    /**
     * Predict, train with the actual outcome, and count; returns
     * true on misprediction. Inline: pipesim and the counter model
     * call it once per simulated branch.
     */
    bool run(uint64_t pc, bool taken)
    {
        uint8_t &counter = counters[index(pc)];
        const bool predicted = counter >= 2;
        if (taken) {
            if (counter < 3)
                ++counter;
        } else if (counter > 0) {
            --counter;
        }
        const bool mispredicted = predicted != taken;
        ++branchCount;
        if (mispredicted)
            ++mispredictCount;
        return mispredicted;
    }

    uint64_t branches() const { return branchCount; }
    uint64_t mispredictions() const { return mispredictCount; }
    double mispredictRatio() const;

  private:
    uint32_t index(uint64_t pc) const
    {
        return static_cast<uint32_t>(pc >> 2) & mask;
    }

    uint32_t mask;
    std::vector<uint8_t> counters; ///< 0..3, >=2 predicts taken
    uint64_t branchCount = 0;
    uint64_t mispredictCount = 0;
};

} // namespace lhr

#endif // LHR_BPRED_PREDICTOR_HH
