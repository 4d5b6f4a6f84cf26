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

var errTruncated = errors.New("itc: truncated encoding")

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
func DecodeID(buf []byte) (*ID, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	tag, rest := buf[0], buf[1:]
	switch tag {
	case tagIDZero:
		return idZero, rest, nil
	case tagIDOne:
		return idOne, rest, nil
	case tagIDNode:
		l, rest, err := DecodeID(rest)
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := DecodeID(rest)
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
func DecodeEvent(buf []byte) (*Event, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	tag, rest := buf[0], buf[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	rest = rest[k:]
	switch tag {
	case 0:
		return leafEv(n), rest, nil
	case 1:
		l, rest, err := DecodeEvent(rest)
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := DecodeEvent(rest)
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
