package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"trust/internal/frame"
)

// TestStreamWireGolden pins the exact bytes of one frame of every
// stream frame type, built from fixed inputs by the frame builders the
// two stream ends use, each appended behind an existing prefix. The stream is a wire protocol: a builder change
// that moves a byte breaks every deployed peer, so any such change
// must show up here first.
func TestStreamWireGolden(t *testing.T) {
	hash := frame.Hash{0x11, 0x22, 0x33}
	cases := []struct {
		ft    FrameType
		build func(dst []byte) ([]byte, error)
		size  int
		sum   string // sha256 of the whole frame
	}{
		{FrameHello, func(dst []byte) ([]byte, error) {
			return AppendMessageFrame(dst, FrameHello, &StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{1, 2}})
		}, 46, "0cc0b692b436014d2f3aa6f40983eb1f578e54dbf087079f5e8b94e697c09570"},
		{FrameWelcome, func(dst []byte) ([]byte, error) {
			return AppendMessageFrame(dst, FrameWelcome, &StreamWelcome{Domain: "www.xyz.com", SessionID: "sess-1", NonceSeed: []byte("0123456789abcdef"), Window: 12, MinVerified: 2, MAC: []byte{3}})
		}, 65, "9e147b427f53cfe6d7047871800b06ebc631c7355adff5054dde8e10ef9c7b89"},
		{FrameTouchBatch, func(dst []byte) ([]byte, error) {
			return AppendTouchBatchFrame(dst, 42, 9*time.Second, []*PageRequest{testPageRequest("home"), testPageRequest("view-statement")})
		}, 245, "605b29866bd6a6a5a5615397f018b26f515164148b099ec18e6264dfa46153fe"},
		{FramePage, func(dst []byte) ([]byte, error) { return AppendPageFrame(dst, 7, 2, testContentPage()) }, 137, "7713b6eff730b1f31813299150e37252d5fe338738f2c97d907a79ed42c779d7"},
		{FrameHeartbeat, func(dst []byte) ([]byte, error) { return AppendHeartbeatFrame(dst, 5, 3*time.Second), nil }, 21, "9a15462069b5523aa247b0ef0db487b4e94b8631e3bc10f0f1d9e2bf54405cff"},
		{FramePolicyPush, func(dst []byte) ([]byte, error) {
			return AppendMessageFrame(dst, FramePolicyPush, &PolicyPush{Domain: "www.xyz.com", SessionID: "sess-1", Window: 8, MinVerified: 3, Seq: 4, MAC: []byte{4}})
		}, 53, "6142066a69808bcffe4243e486e272549200baa0cc740fe9d993bf43861d4fed"},
		{FrameAck, func(dst []byte) ([]byte, error) {
			return AppendAckFrame(dst, 7, "bad-nonce", "nonce does not match")
		}, 50, "4ae1592f734d729f92fb3751fd2eea82917542b95bcc70ef65ce9310e7c4a968"},
		{FrameResync, func(dst []byte) ([]byte, error) {
			return AppendResyncFrame(dst, 11, &ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{5}})
		}, 57, "a28cb99510832041cd4a9e3f09f820dd069af749996e73f078108035fbed0dc2"},
		{FrameBye, func(dst []byte) ([]byte, error) { return AppendFrame(dst, FrameBye, nil) }, 5, "ceba8e226fc1ae3ed6e6fd58d778d4365556868b78faf5e5abbab0c04e0bd392"},
		{FrameResume, func(dst []byte) ([]byte, error) {
			return AppendResumeFrame(dst, 1, 5*time.Second, &ResumeSubmit{Domain: "www.xyz.com", Account: "acct", Ticket: []byte("ticket"), FrameHash: hash, RiskVerified: 2, RiskWindow: 12, MAC: []byte{6}})
		}, 105, "67b96fecc3a1640a3832d24708a231adb030e3c3c6c6a50adba9a4b2df49e914"},
	}
	prefix := []byte("prefix")
	seen := map[FrameType]bool{}
	for _, tc := range cases {
		got, err := tc.build(append(make([]byte, 0, 512), prefix...))
		if err != nil {
			t.Fatalf("%s: %v", tc.ft, err)
		}
		seen[tc.ft] = true
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s builder clobbered the destination prefix", tc.ft)
		}
		got = got[len(prefix):]
		if FrameType(got[0]) != tc.ft {
			t.Errorf("%s frame leads with type %d", tc.ft, got[0])
		}
		sum := sha256.Sum256(got)
		if len(got) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s frame moved: %d bytes, sha256 %x\n%x", tc.ft, len(got), sum, got)
		}
	}
	for ft := FrameHello; ft <= FrameResume; ft++ {
		if !seen[ft] {
			t.Errorf("no golden for %s frames", ft)
		}
	}
}
