// Copyright (c) NetKernel reproduction authors.
// Unit + property tests for congestion control algorithms and byte buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/tcpstack/byte_buffer.h"
#include "src/tcpstack/cc.h"

namespace netkernel::tcp {
namespace {

// ---------------------------------------------------------------------------
// ByteBuffer
// ---------------------------------------------------------------------------

TEST(ByteBuffer, AppendReadDrop) {
  ByteBuffer buf;
  uint8_t data[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  buf.Append(data, 10);
  EXPECT_EQ(buf.size(), 10u);
  uint8_t out[4];
  buf.CopyOut(2, 4, out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[3], 5);
  buf.Drop(3);
  EXPECT_EQ(buf.size(), 7u);
  EXPECT_EQ(buf.ReadInto(out, 2), 2u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
}

TEST(ByteBuffer, SpansChunks) {
  ByteBuffer buf;
  for (int c = 0; c < 10; ++c) {
    std::vector<uint8_t> chunk(100);
    for (int i = 0; i < 100; ++i) chunk[static_cast<size_t>(i)] = static_cast<uint8_t>(c);
    buf.Append(chunk.data(), chunk.size());
  }
  uint8_t out[250];
  buf.CopyOut(50, 250, out);  // crosses chunks 0, 1 and 2
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[49], 0);
  EXPECT_EQ(out[50], 1);
  EXPECT_EQ(out[249], 2);
  // SliceInto reads the same bytes, after what the list already holds.
  SliceList seg;
  BlockRef head = BlockRef::Make(1);
  *head->Grow(1) = 42;
  seg.Add(head, 0, 1);
  buf.SliceInto(50, 250, &seg);
  ASSERT_EQ(seg.size(), 251u);
  std::vector<uint8_t> flat(seg.size());
  seg.CopyOut(0, seg.size(), flat.data());
  EXPECT_EQ(flat[0], 42);
  EXPECT_TRUE(std::equal(out, out + 250, flat.begin() + 1));
  // The slices outlive the bytes' departure from the buffer.
  buf.Drop(buf.size());
  seg.CopyOut(0, seg.size(), flat.data());
  EXPECT_TRUE(std::equal(out, out + 250, flat.begin() + 1));
}

TEST(ByteBuffer, BlocksGrowWithTheBacklog) {
  // A fresh block is as large as the append or the bytes already buffered,
  // up to 64 KiB: eight 16 KiB appends fill blocks of 16, 16, 32 and 64 KiB.
  constexpr uint64_t kAppend = 16 * 1024;
  std::vector<uint8_t> data(8 * kAppend);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  ByteBuffer buf;
  for (int i = 0; i < 8; ++i) buf.Append(data.data() + i * kAppend, kAppend);
  SliceList first, second;
  buf.SliceInto(0, 4 * kAppend, &first);
  buf.SliceInto(4 * kAppend, 4 * kAppend, &second);
  EXPECT_EQ(first.num_slices(), 3u);
  EXPECT_EQ(second.num_slices(), 1u);
  std::vector<uint8_t> got(second.size());
  second.CopyOut(0, second.size(), got.data());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 4 * kAppend));
  // Small appends behind that backlog share one block too.
  for (int i = 0; i < 16; ++i) buf.Append(data.data() + i * 64, 64);
  SliceList rpc;
  buf.SliceInto(8 * kAppend, 16 * 64, &rpc);
  EXPECT_EQ(rpc.num_slices(), 1u);
}

TEST(ByteBuffer, AppendOfSlicesSharesBlocksAndMergesAdjacentPieces) {
  ByteBuffer snd;
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  snd.Append(data.data(), 300);
  // Two segments cut mid-block, as TCP does; the receiver appends both.
  SliceList a, b;
  snd.SliceInto(0, 150, &a);
  snd.SliceInto(150, 150, &b);
  ByteBuffer rcv;
  rcv.Append(a, 10, 140);  // the first 10 bytes arrived earlier
  rcv.Append(b, 0, 150);
  snd.Drop(300);  // ACKed: the receiver's references keep the bytes
  ASSERT_EQ(rcv.size(), 290u);
  std::vector<uint8_t> got(290);
  EXPECT_EQ(rcv.ReadInto(got.data(), got.size()), 290u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 10));
}

TEST(ByteBuffer, RandomizedFifoEquivalence) {
  // Property: ByteBuffer behaves exactly like an ideal byte FIFO.
  Rng rng(17);
  ByteBuffer buf;
  std::vector<uint8_t> model;
  size_t model_head = 0;
  for (int op = 0; op < 5000; ++op) {
    if (rng.NextBool(0.5)) {
      size_t n = rng.NextBounded(300) + 1;
      std::vector<uint8_t> data(n);
      for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
      model.insert(model.end(), data.begin(), data.end());
      buf.Append(data.data(), n);
    } else if (buf.size() > 0) {
      size_t n = rng.NextBounded(buf.size()) + 1;
      std::vector<uint8_t> got(n);
      size_t read = buf.ReadInto(got.data(), n);
      ASSERT_EQ(read, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], model[model_head + i]);
      }
      model_head += n;
    }
    ASSERT_EQ(buf.size(), model.size() - model_head);
  }
}

// ---------------------------------------------------------------------------
// Congestion control
// ---------------------------------------------------------------------------

TEST(RenoCc, SlowStartDoubles) {
  RenoCc cc;
  uint64_t w0 = cc.Window();
  cc.OnAck(w0, kMillisecond, false);  // a full window of ACKs
  EXPECT_EQ(cc.Window(), 2 * w0);
}

TEST(RenoCc, LossHalves) {
  RenoCc cc;
  for (int i = 0; i < 10; ++i) cc.OnAck(cc.Window(), kMillisecond, false);
  uint64_t before = cc.Window();
  cc.OnLoss();
  EXPECT_EQ(cc.Window(), before / 2);
}

TEST(RenoCc, TimeoutCollapsesToTwoMss) {
  RenoCc cc;
  for (int i = 0; i < 10; ++i) cc.OnAck(cc.Window(), kMillisecond, false);
  cc.OnTimeout();
  EXPECT_EQ(cc.Window(), 2 * kMss);
}

TEST(RenoCc, CongestionAvoidanceIsLinear) {
  RenoCc cc;
  cc.OnLoss();  // establish ssthresh = cwnd/2, leave slow start
  uint64_t w = cc.Window();
  cc.OnAck(w, kMillisecond, false);  // one RTT worth of ACKs
  EXPECT_NEAR(static_cast<double>(cc.Window()), static_cast<double>(w + kMss),
              static_cast<double>(kMss) / 2);
}

TEST(CubicCc, GrowsAfterLossTowardWmax) {
  CubicCc cc;
  for (int i = 0; i < 12; ++i) cc.OnAck(cc.Window(), 100 * kMicrosecond, false);
  uint64_t before = cc.Window();
  cc.OnLoss();
  uint64_t after_loss = cc.Window();
  EXPECT_LT(after_loss, before);
  EXPECT_GE(after_loss, static_cast<uint64_t>(0.69 * static_cast<double>(before)));
  for (int i = 0; i < 2000; ++i) cc.OnAck(cc.Window() / 4, 100 * kMicrosecond, false);
  EXPECT_GT(cc.Window(), after_loss);  // cubic recovery
}

TEST(DctcpCc, NoMarksNoBackoff) {
  DctcpCc cc;
  for (int i = 0; i < 50; ++i) cc.OnAck(cc.Window() / 2, 100 * kMicrosecond, false);
  EXPECT_GT(cc.Window(), 10u * kMss);
  EXPECT_LT(cc.alpha(), 1.0);  // alpha decays without marks
}

TEST(DctcpCc, FullMarkingHalvesRepeatedly) {
  DctcpCc cc;
  for (int i = 0; i < 20; ++i) cc.OnAck(cc.Window(), 100 * kMicrosecond, false);
  uint64_t grown = cc.Window();
  for (int i = 0; i < 400; ++i) cc.OnAck(cc.Window() / 4, 100 * kMicrosecond, true);
  EXPECT_LT(cc.Window(), grown);
  EXPECT_GT(cc.alpha(), 0.3);  // alpha tracks the high mark fraction
}

TEST(DctcpCc, ProportionalBackoffGentlerThanLoss) {
  // With a low marking fraction, DCTCP should reduce far less than 50%.
  DctcpCc cc;
  for (int i = 0; i < 20; ++i) cc.OnAck(cc.Window(), 100 * kMicrosecond, false);
  // Let alpha settle low first (interleave 1 marked ACK in 10).
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 9; ++i) cc.OnAck(cc.Window() / 16, 100 * kMicrosecond, false);
    cc.OnAck(cc.Window() / 16, 100 * kMicrosecond, true);
  }
  EXPECT_LT(cc.alpha(), 0.5);
  EXPECT_GT(cc.Window(), 2u * kMss);
}

TEST(SharedWindowGroup, FlowShareSplitsEvenly) {
  SharedWindowGroup g(100 * kMss);
  g.AddFlow();
  g.AddFlow();
  g.AddFlow();
  g.AddFlow();
  EXPECT_EQ(g.FlowShare(), 25 * kMss);
  g.RemoveFlow();
  g.RemoveFlow();
  EXPECT_EQ(g.FlowShare(), 50 * kMss);
}

TEST(SharedWindowGroup, NeverStarvesAFlow) {
  SharedWindowGroup g(4 * kMss);
  for (int i = 0; i < 100; ++i) g.AddFlow();
  EXPECT_EQ(g.FlowShare(), kMss);
}

TEST(SharedWindowCc, AggregateWindowIndependentOfFlowCount) {
  // The paper's §6.2 property: total window is one VM-level window no matter
  // how many connections the VM opens.
  auto g = std::make_shared<SharedWindowGroup>(64 * kMss);
  std::vector<std::unique_ptr<SharedWindowCc>> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(std::make_unique<SharedWindowCc>(g));
    flows.back()->OnConnect();
  }
  uint64_t total = 0;
  for (auto& f : flows) total += f->Window();
  EXPECT_EQ(total, g->cwnd());
  // Acks from any flow advance the shared window.
  uint64_t before = g->cwnd();
  flows[3]->OnAck(before, kMillisecond, false);
  EXPECT_GT(g->cwnd(), before);
  // Loss on any flow reduces it for everyone (first loss always counts).
  flows[5]->OnLoss();
  EXPECT_LE(flows[0]->Window(), g->cwnd() / 8 + kMss);
}

// Property sweep: every algorithm maintains cwnd >= 2*MSS and never exceeds
// the cap, under randomized ack/loss/timeout sequences.
class CcInvariantTest : public ::testing::TestWithParam<int> {
 public:
  std::unique_ptr<CongestionControl> MakeCc() {
    switch (GetParam()) {
      case 0: return std::make_unique<RenoCc>();
      case 1: return std::make_unique<CubicCc>();
      case 2: return std::make_unique<DctcpCc>();
      default: return std::make_unique<SharedWindowCc>(std::make_shared<SharedWindowGroup>());
    }
  }
};

TEST_P(CcInvariantTest, WindowBoundsUnderRandomEvents) {
  auto cc = MakeCc();
  cc->OnConnect();
  Rng rng(99 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 50000; ++i) {
    double r = rng.NextDouble();
    if (r < 0.90) {
      cc->OnAck(rng.NextBounded(3 * kMss) + 1, static_cast<SimTime>(rng.NextBounded(500)) *
                                                   kMicrosecond,
                rng.NextBool(0.1));
    } else if (r < 0.97) {
      cc->OnLoss();
    } else {
      cc->OnTimeout();
    }
    ASSERT_GE(cc->Window(), static_cast<uint64_t>(kMss));
    ASSERT_LE(cc->Window(), 64 * kMiB);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CcInvariantTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace netkernel::tcp
