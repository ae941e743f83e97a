#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include "dual_ladder.hpp"
#include "support/units.hpp"

namespace dvs {
namespace {

class PowerTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(PowerTest, SingleInverterHandComputation) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g = net.add_gate(tt_inv(), {a}, inv);
  net.add_output("y", g);

  Activity act;
  act.alpha01.assign(net.size(), 0.0);
  act.prob_one.assign(net.size(), 0.5);
  act.alpha01[g] = 0.25;
  act.alpha01[a] = 0.25;

  const PowerBreakdown p = compute_power(net, lib_, act, 20.0);
  // Inverter drives only the port: 25 fF + wire(1).
  const double load = 25.0 + lib_.wire_load().wire_cap(1);
  const double vdd2 = lib_.vdd_high() * lib_.vdd_high();
  const double expected_g =
      0.25 * 20.0 * load * vdd2 * kSwitchPowerToMicrowatt;
  // The PI-driven net is charged to the upstream block, not this design.
  EXPECT_NEAR(p.switching, expected_g, 1e-9);
  EXPECT_DOUBLE_EQ(p.node_power[a], 0.0);
  EXPECT_GT(p.internal, 0.0);
  EXPECT_GT(p.leakage, 0.0);
  EXPECT_DOUBLE_EQ(p.converter, 0.0);
  EXPECT_NEAR(p.total(),
              p.switching + p.internal + p.converter + p.leakage, 1e-12);
}

TEST_F(PowerTest, QuadraticInSupply) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  net.add_output("y", g);
  Activity act;
  act.alpha01.assign(net.size(), 0.2);
  act.prob_one.assign(net.size(), 0.5);

  const std::vector<SupplyId> high(net.size(), kTopRung);
  const std::vector<SupplyId> low(net.size(), kLowRung);
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_level = high;
  const double ph = compute_power(ctx).switching;
  ctx.node_level = low;
  const double pl = compute_power(ctx).switching;
  const double ratio = (4.3 * 4.3) / (5.0 * 5.0);
  EXPECT_NEAR(pl / ph, ratio, 1e-9);
}

TEST_F(PowerTest, ConverterPowerAppearsAtAnUpwardBoundary) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
  net.add_output("y", g2);
  Activity act;
  act.alpha01.assign(net.size(), 0.25);

  std::vector<SupplyId> level(net.size(), kTopRung);
  level[g1] = kLowRung;
  level[g2] = kLowRung;
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_level = level;
  EXPECT_DOUBLE_EQ(compute_power(ctx).converter, 0.0);  // stepping down
  level[g2] = kTopRung;
  const PowerBreakdown with = compute_power(ctx);
  EXPECT_GT(with.converter, 0.0);
  EXPECT_GT(with.node_power[g1], 0.0);
}

TEST_F(PowerTest, LoweringAGateReducesItsPower) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  net.add_output("y", g);
  Activity act;
  act.alpha01.assign(net.size(), 0.25);

  std::vector<SupplyId> level(net.size(), kTopRung);
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_level = level;
  const double before = compute_power(ctx).node_power[g];
  level[g] = kLowRung;
  const double after = compute_power(ctx).node_power[g];
  EXPECT_LT(after, before);
}

TEST_F(PowerTest, NodePowerSumsToTotal) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_nand(2), {a, b}, lib_.find("nand2_d0"));
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, lib_.find("inv_d1"));
  net.add_output("y", g2);
  Activity act;
  act.alpha01.assign(net.size(), 0.2);
  const PowerBreakdown p = compute_power(net, lib_, act, 20.0);
  double sum = 0.0;
  for (double v : p.node_power) sum += v;
  EXPECT_NEAR(sum, p.total(), 1e-9);
}

}  // namespace
}  // namespace dvs
