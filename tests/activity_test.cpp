#include "power/activity.hpp"

#include <gtest/gtest.h>

#include "library/library.hpp"

namespace dvs {
namespace {

Network xor_tree(int width) {
  Network net("x");
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i)
    layer.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(net.add_gate(tt_xor(2), {layer[i], layer[i + 1]}));
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  net.add_output("y", layer[0]);
  return net;
}

TEST(Activity, ProbabilityPropagationOnTreeIsExact) {
  // XOR of independent p=0.5 inputs is p=0.5 at every node.
  Network net = xor_tree(8);
  const Activity act = propagate_probabilities(net, 0.5);
  net.for_each_gate([&](const Node& g) {
    EXPECT_NEAR(act.prob_one[g.id], 0.5, 1e-12);
    EXPECT_NEAR(act.alpha01[g.id], 0.25, 1e-12);
  });
}

TEST(Activity, BiasedInputsPropagate) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g = net.add_gate(tt_and(2), {a, b});
  net.add_output("y", g);
  const Activity act = propagate_probabilities(net, 0.9);
  EXPECT_NEAR(act.prob_one[g], 0.81, 1e-12);
  EXPECT_NEAR(act.alpha01[g], 0.81 * 0.19, 1e-12);
}

TEST(Activity, RandomSimulationAgreesWithAnalyticOnTrees) {
  Network net = xor_tree(16);
  ActivityOptions options;
  options.num_vectors = 1 << 14;
  options.seed = 3;
  const Activity sim = estimate_activity(net, options);
  const Activity ana = propagate_probabilities(net, 0.5);
  net.for_each_node([&](const Node& n) {
    EXPECT_NEAR(sim.prob_one[n.id], ana.prob_one[n.id], 0.02) << n.id;
    EXPECT_NEAR(sim.alpha01[n.id], ana.alpha01[n.id], 0.02) << n.id;
  });
}

TEST(Activity, ConstantsNeverSwitch) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId k = net.add_constant(true);
  const NodeId g = net.add_gate(tt_or(2), {a, k});  // g == 1 always
  net.add_output("y", g);
  const Activity act = estimate_activity(net, {});
  EXPECT_DOUBLE_EQ(act.alpha01[k], 0.0);
  EXPECT_DOUBLE_EQ(act.alpha01[g], 0.0);
  EXPECT_DOUBLE_EQ(act.prob_one[g], 1.0);
}

TEST(Activity, DeterministicAcrossRuns) {
  Network net = xor_tree(8);
  ActivityOptions options;
  options.seed = 11;
  const Activity a = estimate_activity(net, options);
  const Activity b = estimate_activity(net, options);
  EXPECT_EQ(a.alpha01, b.alpha01);
}

TEST(Activity, Alpha01BoundedByQuarterInTheLimit) {
  Network net = xor_tree(8);
  ActivityOptions options;
  options.num_vectors = 1 << 13;
  const Activity act = estimate_activity(net, options);
  net.for_each_node([&](const Node& n) {
    EXPECT_LE(act.alpha01[n.id], 0.30);  // 0.25 + sampling noise
  });
}

class BiasSweep : public ::testing::TestWithParam<double> {};

TEST_P(BiasSweep, SimulationTracksInputBias) {
  Network net("t");
  const NodeId a = net.add_input("a");
  net.add_output("y", net.add_gate(tt_buf(), {a}));
  ActivityOptions options;
  options.num_vectors = 1 << 14;
  options.input_one_probability = GetParam();
  const Activity act = estimate_activity(net, options);
  EXPECT_NEAR(act.prob_one[a], GetParam(), 0.02);
  EXPECT_NEAR(act.alpha01[a], GetParam() * (1 - GetParam()), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Biases, BiasSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace dvs
