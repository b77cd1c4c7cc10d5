// Fixture: minimal kOpTraits table mirroring the real src/shm/nqe.h layout.
// Not compiled — consumed only by tools/nklint via tests/nklint_test.cc.
enum class NqeOp : uint8_t {
  kInvalid = 0,
  kSend = 1,
  kBind = 2,
  kOpResult = 32,
  kSendResult = 33,
  kRecvData = 34,
};

inline constexpr OpTraits kOpTraits[] = {
    {NqeOp::kSend,       "send",        RingKind::kSend,       true,  NqeOp::kSendResult},
    {NqeOp::kBind,       "bind",        RingKind::kJob,        false, NqeOp::kOpResult},
    {NqeOp::kOpResult,   "op_result",   RingKind::kCompletion, false, NqeOp::kInvalid},
    {NqeOp::kSendResult, "send_result", RingKind::kCompletion, false, NqeOp::kInvalid},
    {NqeOp::kRecvData,   "recv_data",   RingKind::kReceive,    true,  NqeOp::kInvalid},
};
