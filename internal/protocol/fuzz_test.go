package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// Fuzz targets for the parsing boundary every stream connection and
// HTTP body crosses. Plain `go test` replays the committed corpora in
// testdata/fuzz; `go test -fuzz FuzzDecodeBinary` (or
// FuzzStreamFrames) explores further.

// FuzzDecodeBinary checks the message decoder: it never panics, its
// errors wrap ErrBinaryDecode, whatever it accepts re-encodes to the
// input bytes, and decoding through an intern table (twice, so the
// second pass hits the table) yields the same message.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBinaryDecode) {
				t.Fatalf("error does not wrap ErrBinaryDecode: %v", err)
			}
			return
		}
		re, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", msg, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("%T re-encodes differently:\n in %x\nout %x", msg, data, re)
		}
		var tab internTable
		for pass := 0; pass < 2; pass++ {
			imsg, err := decodeBinary(data, &tab)
			if err != nil {
				t.Fatalf("interning decoder rejects what the stateless one accepts: %v", err)
			}
			// Compare encodings: the encoding is exactly what decoding
			// preserves.
			if ire, _ := EncodeBinary(imsg); !bytes.Equal(ire, re) {
				t.Fatalf("interning decoder disagrees on pass %d:\n%x\n%x", pass, ire, re)
			}
		}
	})
}

// FuzzStreamFrames reads the input as a frame stream twice — with the
// stateless ReadFrame and with one connection Decoder — and decodes
// every frame type that has a payload decoder. Oracles: no panic; read
// errors are end of input or wrap ErrFrame, and a header claiming more
// than MaxFramePayload is refused; decode errors wrap ErrFrame or
// ErrBinaryDecode; an accepted frame rebuilt by its builder is the
// frame read, byte for byte; and for the touch-batch and page frames
// the connection Decoder agrees with the stateless one frame by frame,
// including on messages decoded from earlier frames whose payload
// buffer the Decoder has since reused. Every touch batch is also
// decoded into one reused TouchBatch, which must equal the stateless
// decode of the same payload value for value.
func FuzzStreamFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, conn := bytes.NewReader(data), bytes.NewReader(data)
		var d Decoder
		var reused TouchBatch
		// Rebuilders of the connection-path messages, checked against
		// the frames read once the whole stream is consumed.
		var rebuild []func() ([]byte, error)
		var want [][]byte
		for {
			left := data[len(data)-plain.Len():]
			ft, p, err := ReadFrame(plain)
			cft, cp, cerr := d.ReadFrame(conn)
			if (err == nil) != (cerr == nil) || ft != cft || !bytes.Equal(p, cp) {
				t.Fatalf("ReadFrame paths disagree: %s %v vs %s %v", ft, err, cft, cerr)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrame) {
					t.Fatalf("read error %v", err)
				}
				if len(left) >= frameHeaderLen && binary.BigEndian.Uint32(left[1:]) > MaxFramePayload && !errors.Is(err, ErrFrame) {
					t.Fatalf("oversized header not refused: %v", err)
				}
				break
			}
			if len(p) > MaxFramePayload {
				t.Fatalf("%d-byte payload passed the cap", len(p))
			}
			read := left[:frameHeaderLen+len(p)]
			re, derr := rebuildFrame(t, ft, p)
			switch ft {
			case FrameTouchBatch:
				ctb, cerr := d.DecodeTouchBatch(cp)
				rerr := d.DecodeTouchBatchInto(cp, &reused)
				checkDecodeErrs(t, derr, rerr)
				if checkDecodeErrs(t, derr, cerr) {
					continue
				}
				if tb, _ := freshTouchBatch(p, nil); !reflect.DeepEqual(&reused, tb) {
					t.Fatalf("touch batch decoded into a reused batch differs from a fresh decode:\n%+v\n%+v", reused.Requests, tb.Requests)
				}
				rebuild = append(rebuild, func() ([]byte, error) { return AppendTouchBatchFrame(nil, ctb.Seq, ctb.Now, ctb.Requests) })
				want = append(want, read)
			case FramePage:
				cseq, cindex, cpage, cerr := d.DecodePageFrame(cp)
				if checkDecodeErrs(t, derr, cerr) {
					continue
				}
				rebuild = append(rebuild, func() ([]byte, error) { return AppendPageFrame(nil, cseq, cindex, cpage) })
				want = append(want, read)
			default:
				if checkDecodeErrs(t, derr, derr) {
					continue
				}
			}
			if re != nil && !bytes.Equal(re, read) {
				t.Fatalf("%s frame rebuilds differently:\n in %x\nout %x", ft, read, re)
			}
		}
		for i, enc := range rebuild {
			if got, err := enc(); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("connection-decoded frame %d differs from the frame read (%v)", i, err)
			}
		}
	})
}

// rebuildFrame decodes payload with the stateless decoder for ft and
// rebuilds the whole frame from the result with ft's builder, failing
// the test if an accepted frame does not rebuild. It returns the
// decode error, or a nil frame for a type without a payload decoder
// (unknown types).
func rebuildFrame(t *testing.T, ft FrameType, p []byte) ([]byte, error) {
	must := func(f []byte, err error) ([]byte, error) {
		if err != nil {
			t.Fatalf("accepted %s frame does not rebuild: %v", ft, err)
		}
		return f, nil
	}
	switch ft {
	case FrameHello:
		m, err := DecodeAs[StreamHello](p)
		if err != nil {
			return nil, err
		}
		return must(AppendMessageFrame(nil, ft, m))
	case FrameWelcome:
		m, err := DecodeAs[StreamWelcome](p)
		if err != nil {
			return nil, err
		}
		return must(AppendMessageFrame(nil, ft, m))
	case FrameTouchBatch:
		tb, err := freshTouchBatch(p, nil)
		if err != nil {
			return nil, err
		}
		return must(AppendTouchBatchFrame(nil, tb.Seq, tb.Now, tb.Requests))
	case FramePage:
		seq, index, cp, err := decodePageFrame(p, nil)
		if err != nil {
			return nil, err
		}
		return must(AppendPageFrame(nil, seq, index, cp))
	case FrameAck:
		seq, code, detail, err := DecodeAck(p)
		if err != nil {
			return nil, err
		}
		return must(AppendAckFrame(nil, seq, code, detail))
	case FrameResync:
		seq, req, err := DecodeResyncFrame(p)
		if err != nil {
			return nil, err
		}
		return must(AppendResyncFrame(nil, seq, req))
	}
	return nil, nil
}

// checkDecodeErrs fails unless the stateless and connection decoders
// agree on success, and any error wraps ErrFrame or ErrBinaryDecode.
// It reports whether the frame failed to decode.
func checkDecodeErrs(t *testing.T, err, cerr error) bool {
	t.Helper()
	if (err == nil) != (cerr == nil) {
		t.Fatalf("decoders disagree: stateless %v, connection %v", err, cerr)
	}
	if err != nil && !errors.Is(err, ErrFrame) && !errors.Is(err, ErrBinaryDecode) {
		t.Fatalf("decode error wraps neither ErrFrame nor ErrBinaryDecode: %v", err)
	}
	return err != nil
}
