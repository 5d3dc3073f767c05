package wire

// Central wire-id assignment. Ids are part of the on-the-wire and on-disk
// contract: they must never be reused, and new types take fresh numbers at
// the end of their block. Each consensus package owns one block of 16 so a
// frame's id alone names the protocol it belongs to.
//
// Retired, reserved forever: 19, 20, 35, 36, 55, 56, 67, 68 were the four
// per-protocol VC-REQUEST/NV-PROPOSE pairs that IDVCRequest/IDNVPropose
// replaced.
const (
	// 0: a frame that carries no message. A node with no listen address its
	// peers know (a client) sends one on each fresh connection so that the
	// peer learns the route back before the first reply is due; DecodeFrame
	// returns it as a nil message and transports drop it after that.
	IDHello uint16 = 0

	// 1–15: shared runtime messages (internal/consensus/protocol) and
	// storage payloads (internal/types, internal/storage).
	IDClientRequest  uint16 = 1
	IDForwardRequest uint16 = 2
	IDInform         uint16 = 3
	IDFetch          uint16 = 4
	IDFetchReply     uint16 = 5
	IDCheckpoint     uint16 = 6
	IDExecRecord     uint16 = 7
	IDSnapshot       uint16 = 8

	// Snapshot state transfer (internal/consensus/protocol/statesync.go).
	IDSnapshotRequest uint16 = 9
	IDSnapshotOffer   uint16 = 10
	IDSnapshotChunk   uint16 = 11

	// Hybrid-consistency read path (internal/consensus/protocol/readpath.go).
	IDReadRequest uint16 = 12
	IDReadReply   uint16 = 13
	IDLeaseGrant  uint16 = 14

	// 16–31: PoE.
	IDPoePropose uint16 = 16
	IDPoeSupport uint16 = 17
	IDPoeCertify uint16 = 18
	// 19, 20 retired.

	// 32–47: PBFT.
	IDPbftPrePrepare uint16 = 32
	IDPbftPrepare    uint16 = 33
	IDPbftCommit     uint16 = 34
	// 35, 36 retired.

	// 48–63: SBFT.
	IDSbftPrePrepare      uint16 = 48
	IDSbftSignShare       uint16 = 49
	IDSbftPrepare2        uint16 = 50
	IDSbftShare2          uint16 = 51
	IDSbftFullCommitProof uint16 = 52
	IDSbftSignState       uint16 = 53
	IDSbftExecuteAck      uint16 = 54
	// 55, 56 retired.

	// 64–79: Zyzzyva.
	IDZyzOrderReq    uint16 = 64
	IDZyzCommitReq   uint16 = 65
	IDZyzLocalCommit uint16 = 66
	// 67, 68 retired.

	// 80–95: HotStuff.
	IDHsProposal   uint16 = 80
	IDHsVote       uint16 = 81
	IDHsNewView    uint16 = 82
	IDHsFetchNodes uint16 = 83
	IDHsNodeBundle uint16 = 84

	// 96–111: shared runtime messages, continued (1–15 has one number left).
	// The view-change pair of the four primary-backup protocols
	// (internal/consensus/protocol/skeleton.go).
	IDVCRequest uint16 = 96
	IDNVPropose uint16 = 97
)
