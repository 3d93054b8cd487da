#include "fabric/params.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ibsim::fabric {
namespace {

TEST(FabricParams, DefaultsMatchCalibration) {
  const FabricParams p;
  EXPECT_DOUBLE_EQ(p.wire_gbps, 16.0);        // 20 Gb/s 4x DDR after 8b/10b
  EXPECT_DOUBLE_EQ(p.hca_inject_gbps, 13.5);  // PCIe v1.1 bound (paper V-A)
  EXPECT_DOUBLE_EQ(p.hca_drain_gbps, 13.6);   // "~0.1 Gb/s higher"
  EXPECT_TRUE(p.validate().empty());
}

TEST(FabricParams, CnpVlIsLastLane) {
  FabricParams p;
  EXPECT_EQ(p.n_vls, 2);
  EXPECT_EQ(p.cnp_vl(), 1);
  p.n_vls = 1;
  EXPECT_EQ(p.cnp_vl(), ib::kDataVl);  // nowhere else to go
}

TEST(FabricParams, VlCapacitySelectsBufferPools) {
  const FabricParams p;
  EXPECT_EQ(p.vl_capacity(ib::kDataVl, /*hca=*/false), p.switch_ibuf_data_bytes);
  EXPECT_EQ(p.vl_capacity(p.cnp_vl(), /*hca=*/false), p.switch_ibuf_cnp_bytes);
  EXPECT_EQ(p.vl_capacity(ib::kDataVl, /*hca=*/true), p.hca_ibuf_data_bytes);
  EXPECT_EQ(p.vl_capacity(p.cnp_vl(), /*hca=*/true), p.hca_ibuf_cnp_bytes);
}

TEST(FabricParams, SingleVlSharesTheDataPool) {
  FabricParams p;
  p.n_vls = 1;
  EXPECT_EQ(p.vl_capacity(p.cnp_vl(), /*hca=*/false), p.switch_ibuf_data_bytes);
  EXPECT_EQ(p.vl_capacity(p.cnp_vl(), /*hca=*/true), p.hca_ibuf_data_bytes);
  p.switch_ibuf_cnp_bytes = 0;  // no CNP lane, so no CNP pool to size
  EXPECT_TRUE(p.validate().empty());
}

TEST(FabricParams, ValidateCatchesBrokenSetups) {
  FabricParams p;
  p.wire_gbps = 0.0;
  EXPECT_FALSE(p.validate().empty());

  p = FabricParams{};
  p.hca_inject_gbps = 20.0;  // faster than the wire
  EXPECT_FALSE(p.validate().empty());

  // One lane or two: data, and CNPs on their own lane or sharing it.
  p = FabricParams{};
  for (const std::int32_t n_vls : {0, 3, 15, 16}) {
    p.n_vls = n_vls;
    EXPECT_EQ(p.validate(), "n_vls must be 1 (CNPs share VL0) or 2 (CNPs on VL1), not " +
                                std::to_string(n_vls));
  }

  p = FabricParams{};
  p.switch_ibuf_data_bytes = 100;  // below one MTU
  EXPECT_FALSE(p.validate().empty());

  p = FabricParams{};
  p.switch_ibuf_cnp_bytes = 8;  // below one CNP
  EXPECT_FALSE(p.validate().empty());
}

}  // namespace
}  // namespace ibsim::fabric
