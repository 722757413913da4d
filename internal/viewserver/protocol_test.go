package viewserver

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"sand/internal/vfs"
)

// seedRequests covers every op with representative field values; shared
// with the fuzz harness as its seed corpus.
func seedRequests() []request {
	return []request{
		{id: 1, op: OpPing},
		{id: 2, op: OpOpen, path: "/train/0/0/view"},
		{id: 3, op: OpRead, fd: 7, n: 4096},
		{id: 4, op: OpReadAt, fd: 7, off: 1 << 20, n: 65536},
		{id: 5, op: OpGetxattr, fd: 7, name: "user.sand.labels"},
		{id: 6, op: OpListxattr, fd: 7},
		{id: 7, op: OpSize, fd: 7},
		{id: 8, op: OpReaddir, path: "/train"},
		{id: 9, op: OpClose, fd: 7},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range seedRequests() {
		body := appendRequest(nil, want)
		got, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.op, err)
		}
		if got != want {
			t.Fatalf("%s: roundtrip %+v != %+v", want.op, got, want)
		}
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1, 2, 3},                              // shorter than the header
		{0, 0, 0, 0, 0, 0, 0, 1, 0},            // op 0
		{0, 0, 0, 0, 0, 0, 0, 1, 99},           // unknown op
		{0, 0, 0, 0, 0, 0, 0, 1, byte(OpOpen)}, // open with no path
		{0, 0, 0, 0, 0, 0, 0, 1, byte(OpRead)}, // read with no fd
		append(appendRequest(nil, request{op: OpPing}), 0xFF),       // trailing junk
		appendRequest(nil, request{op: OpGetxattr, fd: 1})[:10],     // truncated mid-payload
		append(appendRequest(nil, request{op: OpOpen}), 0xFF, 0xFF), // string length past end
	}
	for i, body := range cases {
		if _, err := decodeRequest(body); !errors.Is(err, ErrProtocol) {
			t.Fatalf("case %d: err = %v, want ErrProtocol", i, err)
		}
	}
	// Truncations of every valid request must error, never panic.
	for _, req := range seedRequests() {
		full := appendRequest(nil, req)
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeRequest(full[:cut]); err == nil {
				t.Fatalf("%s truncated at %d decoded successfully", req.op, cut)
			}
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello")
	frame := finishFrame(append(make([]byte, frameHeaderLen), body...))
	buf.Write(frame)
	got, err := readFrame(&buf, 64)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readFrame = %q, %v", got, err)
	}
	// Oversized frame.
	buf.Reset()
	buf.Write(finishFrame(append(make([]byte, frameHeaderLen), make([]byte, 100)...)))
	if _, err := readFrame(&buf, 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized: %v, want ErrTooLarge", err)
	}
	// Truncated body.
	buf.Reset()
	buf.Write(frame[:len(frame)-2])
	if _, err := readFrame(&buf, 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: %v, want ErrUnexpectedEOF", err)
	}
	// Truncated header.
	buf.Reset()
	buf.Write([]byte{0, 0})
	if _, err := readFrame(&buf, 64); err == nil {
		t.Fatal("truncated header decoded")
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	sentinels := []error{
		vfs.ErrNotExist, vfs.ErrBadFD, vfs.ErrIsDir,
		vfs.ErrNoXattr, vfs.ErrInvalidPath, ErrTooLarge, ErrProtocol,
	}
	for _, want := range sentinels {
		code := codeFor(want)
		back := errFor(code, "context")
		if !errors.Is(back, want) {
			t.Fatalf("sentinel %v did not survive the wire: got %v", want, back)
		}
	}
	if codeFor(errors.New("anything else")) != codeGeneric {
		t.Fatal("unknown errors should map to codeGeneric")
	}
	if err := errFor(codeGeneric, "boom"); err == nil {
		t.Fatal("generic code decoded to nil")
	}
}

func TestOpString(t *testing.T) {
	if OpOpen.String() != "open" || OpReadAt.String() != "readat" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op must render something")
	}
}
