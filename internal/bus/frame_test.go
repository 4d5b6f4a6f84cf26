package bus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Table-driven error-path tests for the frame codec: every malformed input
// must surface a clean error, never a hang, panic, or silent misparse.

func TestReadFrameErrorPaths(t *testing.T) {
	frame := func(topic string, payload []byte) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		if err := writeFrame(w, topic, payload); err != nil {
			t.Fatalf("writeFrame(%q): %v", topic, err)
		}
		return b.Bytes()
	}
	uvarint := func(v uint64) []byte {
		var buf [binary.MaxVarintLen64]byte
		return buf[:binary.PutUvarint(buf[:], v)]
	}

	full := frame("topic", []byte("payload"))
	cases := []struct {
		name  string
		input []byte
		want  error // nil = assert only that err != nil
	}{
		{"empty input", nil, io.EOF},
		{"truncated header varint", []byte{0x80}, nil},
		{"zero-length topic", uvarint(0), errEmptyTopic},
		{"oversized topic", uvarint(maxTopic + 1), errOversizedTopic},
		{"topic cut mid-way", full[:3], io.ErrUnexpectedEOF},
		{"missing payload length", frame("topic", nil)[:6], io.EOF},
		{"oversized payload", append(append([]byte{}, uvarint(1)...), append([]byte("t"), uvarint(maxFrame+1)...)...), errOversizedPayload},
		{"mid-frame EOF in payload", full[:len(full)-3], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(bufio.NewReader(bytes.NewReader(tc.input)), nil)
			if err == nil {
				t.Fatalf("readFrame(%v) succeeded, want error", tc.input)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("readFrame error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestWriteFrameRejectsEmptyTopic(t *testing.T) {
	var b bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&b), "", []byte("x")); !errors.Is(err, errEmptyTopic) {
		t.Fatalf("writeFrame err = %v, want %v", err, errEmptyTopic)
	}
	if b.Len() != 0 {
		t.Errorf("rejected frame leaked %d bytes onto the wire", b.Len())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		topic   string
		payload []byte
	}{
		{"t", nil},
		{"pt.results", []byte("hello")},
		{strings.Repeat("k", 300), bytes.Repeat([]byte{0xAB}, 5000)},
	}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	for _, tc := range cases {
		if err := writeFrame(w, tc.topic, tc.payload); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&b)
	var frame []byte
	for _, tc := range cases {
		var tlen int
		var err error
		if frame, tlen, err = readFrame(r, frame); err != nil {
			t.Fatal(err)
		}
		topic, payload := string(frame[:tlen]), frame[tlen:]
		if topic != tc.topic || !bytes.Equal(payload, tc.payload) {
			t.Errorf("round trip = (%q, %d bytes), want (%q, %d bytes)",
				topic, len(payload), tc.topic, len(tc.payload))
		}
	}
}

// FuzzReadFrame: on any byte stream, reading frame after frame into one
// reused buffer yields the topics, payloads and errors that reading each
// into memory of its own does, and never panics. The seeds are whole
// streams of frames, long and short, and the malformed headers of
// TestReadFrameErrorPaths.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	for _, fr := range []struct {
		topic   string
		payload []byte
	}{
		{"pt.results", bytes.Repeat([]byte{0xAB}, 5000)},
		{"t", nil},
		{strings.Repeat("k", maxTopic), []byte("short")},
		{"pt.health", []byte("p")},
	} {
		if err := writeFrame(w, fr.topic, fr.payload); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(binary.AppendUvarint(nil, maxTopic+1))
	f.Add([]byte{0x01, 't', 0x0A, 'p', 'a', 'r'})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, stream []byte) {
		fresh, reused := bufio.NewReader(bytes.NewReader(stream)), bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		for {
			want, wantLen, wantErr := readFrame(fresh, nil)
			got, gotLen, err := readFrame(reused, buf)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || gotLen != wantLen || !bytes.Equal(got, want) {
				t.Fatalf("reused buffer read (%q, %v); a fresh one read (%q, %v)", got, err, want, wantErr)
			}
			if err != nil {
				return
			}
			buf = got
		}
	})
}
