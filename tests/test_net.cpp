// Tests for the messaging layer: wire messages, endpoint URIs, the
// brokerless fabric (PUSH + REQ/REP) and the brokered alternative.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "json/write.hpp"
#include "net/broker.hpp"
#include "net/endpoint.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/cluster.hpp"

namespace vp::net {
namespace {

// -------------------------------------------------------------- Message

Message SampleMessage() {
  json::Value payload = json::Value::MakeObject();
  payload["frame_id"] = json::Value(17);
  payload["labels"].PushBack(json::Value("squat"));
  Message m("frame", std::move(payload));
  m.set_sender("pose_detection_module");
  m.set_seq(42);
  m.AddPart(Bytes{1, 2, 3, 4, 5});
  m.AddPart(Bytes{});
  return m;
}

TEST(Message, EncodeDecodeRoundTrip) {
  const Message original = SampleMessage();
  const Bytes wire = original.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type(), "frame");
  EXPECT_EQ(decoded->sender(), "pose_detection_module");
  EXPECT_EQ(decoded->seq(), 42u);
  EXPECT_EQ(decoded->payload().GetInt("frame_id"), 17);
  ASSERT_EQ(decoded->parts().size(), 2u);
  EXPECT_EQ(decoded->parts()[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_TRUE(decoded->parts()[1].empty());
}

TEST(Message, ByteSizeMatchesEncoding) {
  const Message m = SampleMessage();
  EXPECT_EQ(m.ByteSize(), m.Encode().size());
  Message empty;
  EXPECT_EQ(empty.ByteSize(), empty.Encode().size());
}

TEST(Message, ByteSizeFollowsMutation) {
  Message m = SampleMessage();
  const size_t original = m.ByteSize();

  // set_payload installs a new payload.
  json::Value bigger = json::Value::MakeObject();
  bigger["text"] = json::Value(std::string(100, 'x'));
  m.set_payload(std::move(bigger));
  EXPECT_GT(m.ByteSize(), original);
  EXPECT_EQ(m.ByteSize(), m.Encode().size());

  // A mutation through payload().
  const size_t size2 = m.ByteSize();
  m.payload()["more"] = json::Value(12345);
  EXPECT_GT(m.ByteSize(), size2);
  EXPECT_EQ(m.ByteSize(), m.Encode().size());

  // ByteSize right after Encode equals the encoding's size.
  json::Value fresh = json::Value::MakeObject();
  fresh["text"] = json::Value(std::string(50, 'w'));
  m.set_payload(std::move(fresh));
  const Bytes wire = m.Encode();
  EXPECT_EQ(m.ByteSize(), wire.size());
}

TEST(Message, ByteSizeFollowsRetainedPayloadReference) {
  // A caller keeps the reference from payload() alive, encodes, and
  // mutates through the reference afterwards: ByteSize must still
  // agree with the wire encoding.
  Message m = SampleMessage();
  json::Value& p = m.payload();  // outstanding mutable reference
  const Bytes first = m.Encode();
  EXPECT_EQ(m.ByteSize(), first.size());
  p["extra"] = json::Value(std::string(64, 'y'));  // mutate after encode
  EXPECT_EQ(m.ByteSize(), m.Encode().size());
  EXPECT_GT(m.ByteSize(), first.size());

  // The same through ByteSize instead of Encode.
  json::Value& q = m.payload();
  const size_t sized = m.ByteSize();
  EXPECT_EQ(m.ByteSize(), sized);
  q["more"] = json::Value(std::string(64, 'z'));
  EXPECT_GT(m.ByteSize(), sized);
  EXPECT_EQ(m.ByteSize(), m.Encode().size());

  // After set_payload replaces the value wholesale.
  m.set_payload(json::Value::MakeObject());
  const size_t s = m.ByteSize();
  EXPECT_LT(s, sized);
  EXPECT_EQ(m.ByteSize(), s);
  EXPECT_EQ(s, m.Encode().size());
}

TEST(Message, NonFiniteNumbersTravelAsNull) {
  json::Value payload = json::Value::MakeObject();
  payload["a"] = json::Value(std::numeric_limits<double>::quiet_NaN());
  payload["b"] = json::Value(-std::numeric_limits<double>::infinity());
  const Message m("t", std::move(payload));
  const Bytes wire = m.Encode();
  EXPECT_EQ(m.ByteSize(), wire.size());
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(json::Write(decoded->payload()), R"({"a":null,"b":null})");
}

TEST(Message, CopiesDoNotShareMutations) {
  // Copying shares payload/parts (copy-on-write); mutating one copy
  // must not leak into the other.
  Message a = SampleMessage();
  Message b = a;
  b.payload()["frame_id"] = json::Value(99);
  b.mutable_parts()[0] = Bytes{9, 9};
  EXPECT_EQ(a.payload().GetInt("frame_id"), 17);
  EXPECT_EQ(b.payload().GetInt("frame_id"), 99);
  EXPECT_EQ(a.parts()[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(b.parts()[0], (Bytes{9, 9}));
  // The untouched copy still byte-sizes / encodes as before.
  EXPECT_EQ(a.ByteSize(), a.Encode().size());
  EXPECT_EQ(b.ByteSize(), b.Encode().size());
}

TEST(Message, SharedPayloadIsCopiedBeforeAnyWrite) {
  // A payload shared in (an issued service request) travels without a
  // copy and sizes as it encodes. A mutable payload() then copies it,
  // even once the message is its only holder: it may have been
  // created const.
  json::Value issued = json::Value::MakeObject();
  issued["tag"] = json::Value("shared");
  issued["n"] = json::Value(0.1);
  auto shared = std::make_shared<const json::Value>(std::move(issued));
  Message m("request");
  m.set_payload(shared);
  EXPECT_EQ(m.shared_payload(), shared);
  EXPECT_EQ(m.ByteSize(), m.Encode().size());

  m.payload()["extra"] = json::Value(1);
  EXPECT_NE(m.shared_payload(), shared);
  EXPECT_EQ(json::Write(*shared),
            R"({"tag":"shared","n":0.10000000000000001})");
  EXPECT_EQ(m.ByteSize(), m.Encode().size());

  Message only("request");
  only.set_payload(std::make_shared<const json::Value>(*shared));
  const json::Value* held = only.shared_payload().get();
  only.payload()["extra"] = json::Value(2);  // sole holder, still copies
  EXPECT_NE(only.shared_payload().get(), held);

  // A payload the message built itself is written in place once no
  // copy shares it.
  const json::Value* own = &m.payload();
  m.payload()["more"] = json::Value(3);
  EXPECT_EQ(&m.payload(), own);
}

TEST(Message, MovedFromMessageGetsAFreshPayload) {
  // Moving leaves the source owning nothing; writing to it again
  // starts an empty payload instead of dereferencing the moved one.
  Message m("request", json::Value::MakeObject());
  m.payload()["n"] = json::Value(1);
  Message taken = std::move(m);
  EXPECT_EQ(json::Write(taken.payload()), R"({"n":1})");
  m.payload()["n"] = json::Value(2);
  EXPECT_EQ(json::Write(m.payload()), R"({"n":2})");
  EXPECT_EQ(json::Write(taken.payload()), R"({"n":1})");
  EXPECT_EQ(m.ByteSize(), m.Encode().size());
}

TEST(Message, DecodeRejectsBadMagic) {
  Bytes wire = SampleMessage().Encode();
  wire[0] ^= 0xFF;
  EXPECT_FALSE(Message::Decode(wire).ok());
}

TEST(Message, DecodeRejectsTruncation) {
  const Bytes wire = SampleMessage().Encode();
  for (size_t cut : {1UL, wire.size() / 2, wire.size() - 1}) {
    auto truncated = Bytes(wire.begin(),
                           wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(Message::Decode(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Message, DecodeRejectsTrailingBytes) {
  Bytes wire = SampleMessage().Encode();
  wire.push_back(0);
  EXPECT_FALSE(Message::Decode(wire).ok());
}

// ------------------------------------------------------------- Endpoint

TEST(Endpoint, ParsesPaperSyntax) {
  auto ep = ParseEndpoint("bind#tcp://*:5861");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->mode, EndpointMode::kBind);
  EXPECT_EQ(ep->scheme, EndpointScheme::kTcp);
  EXPECT_TRUE(ep->wildcard_host());
  EXPECT_EQ(ep->port, 5861);
  EXPECT_EQ(ep->ToString(), "bind#tcp://*:5861");
}

TEST(Endpoint, ParsesConnectAndInproc) {
  auto ep = ParseEndpoint("connect#inproc://desktop:99");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->mode, EndpointMode::kConnect);
  EXPECT_EQ(ep->scheme, EndpointScheme::kInproc);
  EXPECT_EQ(ep->host, "desktop");
}

TEST(Endpoint, RejectsMalformed) {
  EXPECT_FALSE(ParseEndpoint("tcp://*:5861").ok());          // no mode
  EXPECT_FALSE(ParseEndpoint("bind#udp://*:1").ok());        // bad scheme
  EXPECT_FALSE(ParseEndpoint("bind#tcp://*:").ok());         // no port
  EXPECT_FALSE(ParseEndpoint("bind#tcp://*:0").ok());        // port 0
  EXPECT_FALSE(ParseEndpoint("bind#tcp://*:70000").ok());    // overflow
  EXPECT_FALSE(ParseEndpoint("bind#tcp://:123").ok());       // empty host
  EXPECT_FALSE(ParseEndpoint("listen#tcp://*:5861").ok());   // bad mode
}

// --------------------------------------------------------------- Fabric

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : cluster_(sim::MakeHomeTestbed()), fabric_(cluster_.get()) {}
  std::unique_ptr<sim::Cluster> cluster_;
  Fabric fabric_;
};

TEST_F(FabricTest, PushDeliversAcrossDevices) {
  std::string received_type;
  uint64_t received_seq = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 5861},
                           [&](Message m, Responder) {
                             received_type = m.type();
                             received_seq = m.seq();
                           })
                  .ok());
  Message m("frame");
  m.set_seq(5);
  ASSERT_TRUE(fabric_.Push("phone", Address{"desktop", 5861}, std::move(m))
                  .ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(received_type, "frame");
  EXPECT_EQ(received_seq, 5u);
  // Delivery took Wi-Fi time, not zero.
  EXPECT_GT(cluster_->Now().millis(), 2.0);
}

TEST_F(FabricTest, BindRejectsDuplicatesAndUnknownDevices) {
  ASSERT_TRUE(fabric_.Bind(Address{"tv", 1}, [](Message, Responder) {}).ok());
  EXPECT_EQ(fabric_.Bind(Address{"tv", 1}, [](Message, Responder) {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fabric_.Bind(Address{"toaster", 1}, [](Message, Responder) {})
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FabricTest, PushToUnboundIsDroppedAndCounted) {
  ASSERT_TRUE(
      fabric_.Push("phone", Address{"desktop", 9}, Message("x")).ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(fabric_.dropped_messages(), 1u);
}

TEST_F(FabricTest, UnbindStopsDelivery) {
  int hits = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"tv", 2},
                           [&](Message, Responder) { ++hits; })
                  .ok());
  ASSERT_TRUE(fabric_.Push("phone", Address{"tv", 2}, Message("a")).ok());
  cluster_->simulator().RunUntilIdle();
  fabric_.Unbind(Address{"tv", 2});
  ASSERT_TRUE(fabric_.Push("phone", Address{"tv", 2}, Message("b")).ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(fabric_.dropped_messages(), 1u);
}

TEST_F(FabricTest, RequestReplyRoundTrip) {
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 7000},
                           [](Message m, Responder respond) {
                             json::Value payload = json::Value::MakeObject();
                             payload["echo"] = json::Value(m.type());
                             respond(Message("reply", std::move(payload)));
                           })
                  .ok());
  std::string echo;
  double reply_time = 0;
  ASSERT_TRUE(fabric_
                  .Request("phone", Address{"desktop", 7000},
                           Message("ping"),
                           [&](Result<Message> reply) {
                             ASSERT_TRUE(reply.ok());
                             echo = reply->payload().GetString("echo");
                             reply_time = cluster_->Now().millis();
                           })
                  .ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(echo, "ping");
  // One full round trip over Wi-Fi: ≥ 2 × latency.
  EXPECT_GT(reply_time, 6.0);
}

TEST_F(FabricTest, RequestToUnboundFailsGracefully) {
  StatusCode code = StatusCode::kOk;
  ASSERT_TRUE(fabric_
                  .Request("phone", Address{"desktop", 404}, Message("ping"),
                           [&](Result<Message> reply) {
                             code = reply.code();
                           })
                  .ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(code, StatusCode::kUnavailable);
}

TEST_F(FabricTest, LargerMessagesTakeLonger) {
  double small_time = 0;
  double big_time = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 1}, [](Message, Responder) {})
                  .ok());
  {
    Message small("s");
    fabric_.Push("phone", Address{"desktop", 1}, std::move(small));
    cluster_->simulator().RunUntilIdle();
    small_time = cluster_->Now().millis();
  }
  {
    Message big("b");
    big.AddPart(Bytes(500000, 0x7));
    fabric_.Push("phone", Address{"desktop", 1}, std::move(big));
    cluster_->simulator().RunUntilIdle();
    big_time = cluster_->Now().millis() - small_time;
  }
  EXPECT_GT(big_time, small_time);
  EXPECT_GT(big_time, 40.0);  // 500 KB at 80 Mbit/s = 50 ms serialization
}

TEST_F(FabricTest, PublishFanOutIsolatesSubscribers) {
  // Publish hands each subscriber its own Message; the copies share
  // payload/parts copy-on-write, so one subscriber mutating its copy
  // must not be visible to the others (or to the publisher's message).
  std::vector<int> seen_frame_ids;
  fabric_.Subscribe("frames", "desktop", [&](Message m) {
    // First subscriber scribbles over everything it received.
    m.payload()["frame_id"] = json::Value(-1);
    m.mutable_parts().clear();
    seen_frame_ids.push_back(-1);
  });
  fabric_.Subscribe("frames", "tv", [&](Message m) {
    seen_frame_ids.push_back(m.payload().GetInt("frame_id"));
    EXPECT_EQ(m.parts().size(), 1u);
    EXPECT_EQ(m.parts()[0], (Bytes{7, 7, 7}));
  });

  json::Value payload = json::Value::MakeObject();
  payload["frame_id"] = json::Value(31);
  Message m("frame", std::move(payload));
  m.AddPart(Bytes{7, 7, 7});
  ASSERT_TRUE(fabric_.Publish("phone", "frames", m).ok());
  cluster_->simulator().RunUntilIdle();

  // Delivery order across devices is a latency detail — sort.
  std::sort(seen_frame_ids.begin(), seen_frame_ids.end());
  ASSERT_EQ(seen_frame_ids.size(), 2u);
  EXPECT_EQ(seen_frame_ids[0], -1);
  EXPECT_EQ(seen_frame_ids[1], 31);  // unaffected by subscriber 1
  // The publisher's original is also untouched.
  EXPECT_EQ(m.payload().GetInt("frame_id"), 31);
  ASSERT_EQ(m.parts().size(), 1u);
}

// -------------------------------------- checksum + dedup (adversarial)

TEST(Message, DecodeRejectsBitFlipsAnywhere) {
  // The trailing FNV-1a checksum catches a flipped bit at any offset —
  // including inside length prefixes, where a corrupted value would
  // otherwise misparse plausibly.
  const Bytes wire = SampleMessage().Encode();
  for (size_t i = 0; i < wire.size(); ++i) {
    Bytes corrupted = wire;
    corrupted[i] ^= 0x20;
    EXPECT_FALSE(Message::Decode(corrupted).ok()) << "offset=" << i;
  }
  EXPECT_TRUE(Message::Decode(wire).ok());
}

TEST(Message, LinkSeqAndFenceEpochRoundTrip) {
  Message m = SampleMessage();
  m.set_link_seq(7123);
  m.set_fence_epoch(3);
  auto decoded = Message::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->link_seq(), 7123u);
  EXPECT_EQ(decoded->fence_epoch(), 3u);
}

TEST(DedupWindow, DropsDuplicatesInWindow) {
  DedupWindow window;
  EXPECT_TRUE(window.Admit(5, false));
  EXPECT_FALSE(window.Admit(5, false));  // exact duplicate
  EXPECT_TRUE(window.Admit(6, false));
  EXPECT_FALSE(window.Admit(5, false));  // still remembered
  EXPECT_FALSE(window.Admit(6, false));
  EXPECT_EQ(window.stats().duplicates_dropped, 3u);
}

TEST(DedupWindow, AcceptsReordersInsideWindowDropsBeyond) {
  DedupWindow window;
  EXPECT_TRUE(window.Admit(100, false));
  EXPECT_TRUE(window.Admit(100 + DedupWindow::kWindow, false));
  // 100 is now exactly kWindow behind the highest — beyond the bitmap.
  EXPECT_FALSE(window.Admit(100, false));
  EXPECT_EQ(window.stats().stale_dropped, 1u);
  // One step inside the window: a late (reordered) first arrival.
  EXPECT_TRUE(window.Admit(100 + DedupWindow::kWindow - 1, false));
  EXPECT_EQ(window.stats().reorders_accepted, 1u);
  // ... but its duplicate is still caught.
  EXPECT_FALSE(window.Admit(100 + DedupWindow::kWindow - 1, false));
}

TEST(DedupWindow, SequenceWraparound) {
  // Serial-number arithmetic: 1 (after the skip-zero wrap) counts as
  // newer than 0xFFFFFFFF, not four billion messages stale.
  DedupWindow window;
  EXPECT_TRUE(window.Admit(0xFFFFFFFE, false));
  EXPECT_TRUE(window.Admit(0xFFFFFFFF, false));
  EXPECT_TRUE(window.Admit(1, false));  // transmitter skips 0 on wrap
  EXPECT_TRUE(window.Admit(2, false));
  // Pre-wrap seqs are still inside the window: duplicates, not fresh.
  EXPECT_FALSE(window.Admit(0xFFFFFFFF, false));
  EXPECT_EQ(window.stats().duplicates_dropped, 1u);
  EXPECT_EQ(window.stats().stale_dropped, 0u);
}

TEST(DedupWindow, CorruptedAndUnstamped) {
  DedupWindow window;
  EXPECT_FALSE(window.Admit(9, true));  // corrupted: dropped pre-seq
  EXPECT_EQ(window.stats().corruptions_dropped, 1u);
  EXPECT_TRUE(window.Admit(9, false));  // clean retransmit admitted
  // Unstamped (loopback) messages bypass dedup entirely.
  EXPECT_TRUE(window.Admit(0, false));
  EXPECT_TRUE(window.Admit(0, false));
}

TEST_F(FabricTest, DuplicatingLinkDeliversEffectivelyOnce) {
  sim::LinkSpec dup;
  dup.duplicate = 1.0;  // every message arrives twice
  cluster_->network().SetLink("phone", "desktop", dup);
  int hits = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 21},
                           [&](Message, Responder) { ++hits; })
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        fabric_.Push("phone", Address{"desktop", 21}, Message("f")).ok());
  }
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(cluster_->network().stats().duplicates_delivered, 5u);
  EXPECT_EQ(fabric_.dedup_stats().duplicates_dropped, 5u);
}

TEST_F(FabricTest, CorruptingLinkDropsFramesAtChecksumGate) {
  sim::LinkSpec bad;
  bad.corrupt = 1.0;
  cluster_->network().SetLink("phone", "desktop", bad);
  int hits = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 22},
                           [&](Message, Responder) { ++hits; })
                  .ok());
  ASSERT_TRUE(
      fabric_.Push("phone", Address{"desktop", 22}, Message("f")).ok());
  cluster_->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(fabric_.dedup_stats().corruptions_dropped, 1u);
}

TEST_F(FabricTest, LinkSeqWraparoundKeepsDelivering) {
  // Force the phone→desktop transport counter to the edge of uint32
  // and stream across the wrap: every message still arrives exactly
  // once (the receiver's serial arithmetic does not see a 4-billion
  // step backwards).
  fabric_.DebugSetLinkTxSeq("phone", "desktop", 0xFFFFFFFDu);
  int hits = 0;
  ASSERT_TRUE(fabric_.Bind(Address{"desktop", 23},
                           [&](Message, Responder) { ++hits; })
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        fabric_.Push("phone", Address{"desktop", 23}, Message("f")).ok());
    cluster_->simulator().RunUntilIdle();
  }
  EXPECT_EQ(hits, 8);
  EXPECT_EQ(fabric_.dedup_stats().duplicates_dropped, 0u);
  EXPECT_EQ(fabric_.dedup_stats().stale_dropped, 0u);
}

// --------------------------------------------------------------- Broker

TEST(Broker, DoubleHopCostsMoreThanBrokerless) {
  // Same message, same endpoints; broker on the desktop relays
  // phone → tv traffic. The paper's §3.2 argument, quantified.
  auto cluster = sim::MakeHomeTestbed();
  Fabric direct(cluster.get());
  BrokerFabric brokered(cluster.get(), "desktop");

  double direct_time = -1;
  double brokered_time = -1;
  ASSERT_TRUE(direct.Bind(Address{"tv", 1},
                          [&](Message, Responder) {
                            direct_time = cluster->Now().millis();
                          })
                  .ok());
  ASSERT_TRUE(brokered.Bind(Address{"tv", 2},
                            [&](Message) {
                              brokered_time = cluster->Now().millis();
                            })
                  .ok());

  Message m1("x");
  m1.AddPart(Bytes(20000, 1));
  Message m2("x");
  m2.AddPart(Bytes(20000, 1));
  const double start = cluster->Now().millis();
  ASSERT_TRUE(direct.Push("phone", Address{"tv", 1}, std::move(m1)).ok());
  ASSERT_TRUE(brokered.Push("phone", Address{"tv", 2}, std::move(m2)).ok());
  cluster->simulator().RunUntilIdle();

  ASSERT_GT(direct_time, start);
  ASSERT_GT(brokered_time, start);
  // Broker pays the second hop + forwarding: at least ~1.5× slower.
  EXPECT_GT(brokered_time - start, (direct_time - start) * 1.5);
}

TEST(Broker, DropsForUnboundAddress) {
  auto cluster = sim::MakeHomeTestbed();
  BrokerFabric brokered(cluster.get(), "desktop");
  ASSERT_TRUE(
      brokered.Push("phone", Address{"tv", 9}, Message("x")).ok());
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(brokered.dropped_messages(), 1u);
}

TEST(Broker, RejectsUnknownBrokerDevice) {
  auto cluster = sim::MakeHomeTestbed();
  BrokerFabric brokered(cluster.get(), "mainframe");
  EXPECT_EQ(brokered.Push("phone", Address{"tv", 1}, Message("x")).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace vp::net
