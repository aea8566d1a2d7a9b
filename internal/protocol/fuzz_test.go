package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
			// Compare encodings, not values: NaN coordinates are never
			// DeepEqual, and the encoding is exactly what decoding
			// preserves.
			if ire, _ := EncodeBinary(imsg); !bytes.Equal(ire, re) {
				t.Fatalf("interning decoder disagrees on pass %d:\n%x\n%x", pass, ire, re)
			}
		}
	})
}

// FuzzStreamFrames reads the input as a frame stream twice — with the
// stateless ReadFrame and with one connection Decoder — and decodes
// the touch-batch and page frames both ways. Oracles: no panic; read
// errors are end of input or wrap ErrFrame, and a header claiming more
// than MaxFramePayload is refused; decode errors wrap ErrFrame or
// ErrBinaryDecode; accepted frames re-encode to their payload; the two
// paths agree frame by frame, including on messages decoded from
// earlier frames whose payload buffer the Decoder has since reused.
func FuzzStreamFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, conn := bytes.NewReader(data), bytes.NewReader(data)
		var d Decoder
		// Re-encoders of the connection-path messages, checked against
		// the stateless encodings once the whole stream is read.
		var reencode []func() ([]byte, error)
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
			switch ft {
			case FrameTouchBatch:
				tb, err := DecodeTouchBatch(p)
				ctb, cerr := d.DecodeTouchBatch(cp)
				if checkDecodeErrs(t, err, cerr) {
					continue
				}
				re, err := EncodeTouchBatch(tb.Seq, tb.Now, tb.Requests)
				if err != nil || !bytes.Equal(re, p) {
					t.Fatalf("touch batch re-encodes differently (%v):\n in %x\nout %x", err, p, re)
				}
				reencode = append(reencode, func() ([]byte, error) { return EncodeTouchBatch(ctb.Seq, ctb.Now, ctb.Requests) })
				want = append(want, re)
			case FramePage:
				seq, index, page, err := DecodePageFrame(p)
				cseq, cindex, cpage, cerr := d.DecodePageFrame(cp)
				if checkDecodeErrs(t, err, cerr) {
					continue
				}
				if seq != cseq || index != cindex {
					t.Fatalf("page frame header %d/%d vs %d/%d", seq, index, cseq, cindex)
				}
				re, err := EncodePageFrame(seq, index, page)
				if err != nil || !bytes.Equal(re, p) {
					t.Fatalf("page frame re-encodes differently (%v):\n in %x\nout %x", err, p, re)
				}
				reencode = append(reencode, func() ([]byte, error) { return EncodePageFrame(cseq, cindex, cpage) })
				want = append(want, re)
			}
		}
		for i, enc := range reencode {
			if got, err := enc(); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("connection-decoded frame %d differs from the stateless decode (%v)", i, err)
			}
		}
	})
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
