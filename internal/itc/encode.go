package itc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encoding: pre-order traversal with one tag byte per node.
// ID nodes: 0 = leaf zero, 1 = leaf one, 2 = interior.
// Event nodes: 0 = leaf (followed by uvarint counter), 1 = interior
// (followed by uvarint base then both children).

const (
	tagIDZero = 0
	tagIDOne  = 1
	tagIDNode = 2
)

// ErrTruncated reports bytes that end before the encoding does.
var ErrTruncated = errors.New("itc: truncated encoding")

// maxDepth bounds the nesting DecodeID and DecodeEvent follow. The decoders
// recurse once per level and stamps arrive in-band, inside the traced
// application: without a bound, a few megabytes of nested interior tags
// overflow the goroutine stack, which no recover catches. A tree gains one
// level per Fork that is never joined back, so 1<<16 is far beyond any
// request's fan-out and still only a few megabytes of stack.
const maxDepth = 1 << 16

var errTooDeep = fmt.Errorf("itc: tree nested deeper than %d levels", maxDepth)

// AppendID appends the binary encoding of i to buf.
func AppendID(buf []byte, i *ID) []byte {
	if i.Leaf {
		if i.Val == 0 {
			return append(buf, tagIDZero)
		}
		return append(buf, tagIDOne)
	}
	buf = append(buf, tagIDNode)
	buf = AppendID(buf, i.L)
	return AppendID(buf, i.R)
}

// DecodeID decodes an ID from the front of buf, returning the remainder.
func DecodeID(buf []byte) (*ID, []byte, error) { return decodeID(buf, 0) }

func decodeID(buf []byte, depth int) (*ID, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, ErrTruncated
	}
	if depth > maxDepth {
		return nil, nil, errTooDeep
	}
	tag, rest := buf[0], buf[1:]
	switch tag {
	case tagIDZero:
		return idZero, rest, nil
	case tagIDOne:
		return idOne, rest, nil
	case tagIDNode:
		l, rest, err := decodeID(rest, depth+1)
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := decodeID(rest, depth+1)
		if err != nil {
			return nil, nil, err
		}
		return nodeID(l, r), rest, nil
	default:
		return nil, nil, fmt.Errorf("itc: bad ID tag %d", tag)
	}
}

// AppendEvent appends the binary encoding of e to buf.
func AppendEvent(buf []byte, e *Event) []byte {
	if e.Leaf {
		buf = append(buf, 0)
		return binary.AppendUvarint(buf, e.N)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, e.N)
	buf = AppendEvent(buf, e.L)
	return AppendEvent(buf, e.R)
}

// DecodeEvent decodes an Event from the front of buf.
func DecodeEvent(buf []byte) (*Event, []byte, error) { return decodeEvent(buf, 0) }

func decodeEvent(buf []byte, depth int) (*Event, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, ErrTruncated
	}
	if depth > maxDepth {
		return nil, nil, errTooDeep
	}
	tag, rest := buf[0], buf[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, nil, ErrTruncated
	}
	rest = rest[k:]
	switch tag {
	case 0:
		return leafEv(n), rest, nil
	case 1:
		l, rest, err := decodeEvent(rest, depth+1)
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := decodeEvent(rest, depth+1)
		if err != nil {
			return nil, nil, err
		}
		return nodeEv(n, l, r), rest, nil
	default:
		return nil, nil, fmt.Errorf("itc: bad event tag %d", tag)
	}
}

// AppendStamp appends the binary encoding of s to buf.
func AppendStamp(buf []byte, s Stamp) []byte {
	buf = AppendID(buf, s.id)
	return AppendEvent(buf, s.ev)
}

// DecodeStamp decodes a Stamp from the front of buf.
func DecodeStamp(buf []byte) (Stamp, []byte, error) {
	id, rest, err := DecodeID(buf)
	if err != nil {
		return Stamp{}, nil, err
	}
	ev, rest, err := DecodeEvent(rest)
	if err != nil {
		return Stamp{}, nil, err
	}
	return Stamp{id: id, ev: ev}, rest, nil
}

// KeyID returns a compact string form of an ID usable as a map key.
func KeyID(i *ID) string { return string(AppendID(nil, i)) }
