/**
 * @file
 * Tests for the bimodal branch predictor.
 */

#include <gtest/gtest.h>

#include "bpred/predictor.hh"
#include "util/rng.hh"

namespace lhr
{

TEST(Bimodal, LearnsAStrongBias)
{
    BimodalPredictor pred(10);
    const uint64_t pc = 0x400100;
    for (int i = 0; i < 100; ++i)
        pred.run(pc, true);
    // After warmup the always-taken branch is always predicted.
    EXPECT_TRUE(pred.predict(pc));
    EXPECT_LE(pred.mispredictions(), 2u);
}

TEST(Bimodal, LearnsNotTaken)
{
    BimodalPredictor pred(10);
    const uint64_t pc = 0x400200;
    for (int i = 0; i < 100; ++i)
        pred.run(pc, false);
    EXPECT_FALSE(pred.predict(pc));
    EXPECT_LE(pred.mispredictions(), 3u);
}

TEST(Bimodal, HysteresisSurvivesOneFlip)
{
    BimodalPredictor pred(10);
    const uint64_t pc = 0x400300;
    for (int i = 0; i < 10; ++i)
        pred.run(pc, true);
    pred.run(pc, false); // single anomaly
    EXPECT_TRUE(pred.predict(pc)); // 2-bit counter holds
}

TEST(Bimodal, BiasedBranchRateMatchesTheory)
{
    // Stationary misprediction rate of a 2-bit counter on a
    // Bernoulli(0.7) branch is ~0.36.
    BimodalPredictor pred(12);
    Rng rng(9);
    const uint64_t pc = 0x400400;
    for (int i = 0; i < 200000; ++i)
        pred.run(pc, rng.uniform() < 0.7);
    EXPECT_NEAR(pred.mispredictRatio(), 0.36, 0.03);
}

TEST(Bimodal, RandomBranchNearHalf)
{
    BimodalPredictor pred(12);
    Rng rng(10);
    for (int i = 0; i < 100000; ++i)
        pred.run(0x400500, rng.uniform() < 0.5);
    EXPECT_NEAR(pred.mispredictRatio(), 0.5, 0.03);
}

TEST(Bimodal, AlternatingBranchDefeatsIt)
{
    // A strictly alternating branch keeps the counter bouncing
    // between its weak and strong taken states: every not-taken
    // outcome is mispredicted.
    BimodalPredictor pred(12);
    const uint64_t pc = 0x400600;
    for (int i = 0; i < 10000; ++i)
        pred.run(pc, (i % 2) == 0);
    EXPECT_NEAR(pred.mispredictRatio(), 0.5, 1e-12);
}

TEST(Predictors, TableSizeValidation)
{
    EXPECT_DEATH(BimodalPredictor(0), "table");
    EXPECT_DEATH(BimodalPredictor(30), "table");
}

TEST(Predictors, CountsAreConsistent)
{
    BimodalPredictor pred(8);
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        pred.run(0x400000 + 16 * rng.below(8), rng.uniform() < 0.8);
    EXPECT_EQ(pred.branches(), 1000u);
    EXPECT_LE(pred.mispredictions(), pred.branches());
}

} // namespace lhr
