#include "bpred/predictor.hh"

#include "util/logging.hh"

namespace lhr
{

BimodalPredictor::BimodalPredictor(int table_bits)
{
    if (table_bits < 1 || table_bits > 24)
        panic("BimodalPredictor: bad table size");
    mask = (1u << table_bits) - 1;
    counters.assign(mask + 1, 2); // weakly taken
}

double
BimodalPredictor::mispredictRatio() const
{
    return branchCount == 0
        ? 0.0
        : static_cast<double>(mispredictCount) / branchCount;
}

} // namespace lhr
