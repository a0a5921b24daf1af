package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
)

// Binary per-CPU trace format ("CDPCTRC1"), the on-disk and on-the-wire
// shape of an external address stream:
//
//	magic   8 bytes  "CDPCTRC1"
//	ncpus   uvarint  1..MaxFileCPUs
//	then, per CPU in order:
//	  nrefs    uvarint  reference count of this CPU's block
//	  blockLen uvarint  encoded byte length of the block
//	  block    blockLen bytes
//	nothing may follow the last block.
//
// Within a block each reference is delta-encoded against per-CPU state
// (previous address starts at 0, previous size at 8):
//
//	ctl     1 byte   bits 0-1 Kind, bit 2 "size follows",
//	                 bit 3 "work follows", bits 4-7 reserved (zero)
//	delta   zigzag uvarint  VAddr - previous VAddr (two's-complement wrap)
//	size    uvarint  only when bit 2 is set; becomes the new previous size
//	work    uvarint  only when bit 3 is set (else 0); must fit uint32
//
// Decode validates everything up front — magic, CPU count, reserved
// bits, varint termination, field ranges, and that every block holds
// exactly its declared reference count with no trailing bytes — because
// trace.Stream has no error channel: once a File exists, its streams
// are infallible. The File keeps only the compressed blocks; streams
// decode on the fly, so a run never materializes the reference slice.
const (
	// Magic is the 8-byte file signature of the binary trace format.
	Magic = "CDPCTRC1"
	// MaxFileCPUs caps the per-CPU stream count a trace file may carry.
	MaxFileCPUs = 64

	ctlKindMask = 0x03
	ctlSize     = 0x04
	ctlWork     = 0x08
	ctlReserved = 0xf0

	initialSize = 8
)

// File is a decoded (validated) binary trace: one reference stream per
// CPU, held in compressed form. The zero File is empty and unusable;
// build one with Decode, an Encoder, or ConvertText.
type File struct {
	counts []uint64
	blocks [][]byte
}

// NumCPUs returns the number of per-CPU streams in the trace.
func (f *File) NumCPUs() int { return len(f.blocks) }

// Refs returns the reference count of one CPU's stream.
func (f *File) Refs(cpu int) uint64 { return f.counts[cpu] }

// TotalRefs returns the reference count summed over all CPUs.
func (f *File) TotalRefs() uint64 {
	var n uint64
	for _, c := range f.counts {
		n += c
	}
	return n
}

// EncodedSize returns the serialized byte length of the trace.
func (f *File) EncodedSize() int {
	n := len(Magic) + uvarintLen(uint64(len(f.blocks)))
	for cpu, b := range f.blocks {
		n += uvarintLen(f.counts[cpu]) + uvarintLen(uint64(len(b))) + len(b)
	}
	return n
}

// AppendBinary serializes the trace onto b.
func (f *File) AppendBinary(b []byte) []byte {
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, uint64(len(f.blocks)))
	for cpu, blk := range f.blocks {
		b = binary.AppendUvarint(b, f.counts[cpu])
		b = binary.AppendUvarint(b, uint64(len(blk)))
		b = append(b, blk...)
	}
	return b
}

// WriteTo serializes the trace; it implements io.WriterTo.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.AppendBinary(make([]byte, 0, f.EncodedSize())))
	return int64(n), err
}

// Hash returns the hex SHA-256 of the serialized trace. Two Files hash
// equal exactly when their reference sequences and CPU shapes agree,
// so the hash is a content address (the scheduler's memo key and the
// server's trace store both key on it).
func (f *File) Hash() string {
	sum := sha256.Sum256(f.AppendBinary(make([]byte, 0, f.EncodedSize())))
	return hex.EncodeToString(sum[:])
}

// Stream returns an independent cursor over one CPU's references,
// decoding from the compressed block as it goes. CPUs at or beyond
// NumCPUs yield the empty stream, so a machine wider than the trace
// simply idles its extra processors.
func (f *File) Stream(cpu int) Stream {
	if cpu < 0 || cpu >= len(f.blocks) {
		return Empty
	}
	return &blockStream{data: f.blocks[cpu], left: f.counts[cpu], size: initialSize}
}

// blockStream decodes one CPU's block. Decode validated the block, so
// the fast path here trusts it; a short varint (impossible after
// validation) just ends the stream.
type blockStream struct {
	data []byte
	left uint64
	prev uint64
	size uint8
}

// Next implements Stream.
func (s *blockStream) Next(r *Ref) bool {
	if s.left == 0 || len(s.data) == 0 {
		return false
	}
	ctl := s.data[0]
	s.data = s.data[1:]
	zz, n := binary.Uvarint(s.data)
	if n <= 0 {
		s.left = 0
		return false
	}
	s.data = s.data[n:]
	s.prev += uint64(unzigzag(zz))
	if ctl&ctlSize != 0 {
		v, n := binary.Uvarint(s.data)
		if n <= 0 {
			s.left = 0
			return false
		}
		s.data = s.data[n:]
		s.size = uint8(v)
	}
	var work uint32
	if ctl&ctlWork != 0 {
		v, n := binary.Uvarint(s.data)
		if n <= 0 {
			s.left = 0
			return false
		}
		s.data = s.data[n:]
		work = uint32(v)
	}
	r.Kind = Kind(ctl & ctlKindMask)
	r.VAddr = s.prev
	r.Size = s.size
	r.Work = work
	s.left--
	return true
}

// DecodeBytes parses and fully validates a serialized binary trace.
// Validation includes varint canonicality, so an accepted trace
// re-serializes to its exact input bytes and Hash is a true content
// address.
func DecodeBytes(data []byte) (*File, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("trace: bad magic (want %q)", Magic)
	}
	data = data[len(Magic):]
	ncpus, n := readUvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("trace: truncated CPU count")
	}
	data = data[n:]
	if ncpus < 1 || ncpus > MaxFileCPUs {
		return nil, fmt.Errorf("trace: %d CPUs (want 1..%d)", ncpus, MaxFileCPUs)
	}
	f := &File{counts: make([]uint64, ncpus), blocks: make([][]byte, ncpus)}
	for cpu := 0; cpu < int(ncpus); cpu++ {
		nrefs, n := readUvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("trace: cpu %d: truncated reference count", cpu)
		}
		data = data[n:]
		blockLen, n := readUvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("trace: cpu %d: truncated block length", cpu)
		}
		data = data[n:]
		if blockLen > uint64(len(data)) {
			return nil, fmt.Errorf("trace: cpu %d: block length %d exceeds remaining %d bytes", cpu, blockLen, len(data))
		}
		block := data[:blockLen]
		data = data[blockLen:]
		if err := validateBlock(cpu, block, nrefs); err != nil {
			return nil, err
		}
		f.counts[cpu] = nrefs
		f.blocks[cpu] = block
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last block", len(data))
	}
	return f, nil
}

// Decode reads and validates a serialized binary trace. The whole
// input is read: the format's blocks are length-prefixed, so bounded-
// memory callers (the server) cap the reader before decoding.
func Decode(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return DecodeBytes(data)
}

// validateBlock walks one CPU's block and checks that it decodes to
// exactly nrefs well-formed references with no trailing bytes.
func validateBlock(cpu int, block []byte, nrefs uint64) error {
	bad := func(ref uint64, format string, args ...any) error {
		return fmt.Errorf("trace: cpu %d ref %d: %s", cpu, ref, fmt.Sprintf(format, args...))
	}
	for i := uint64(0); i < nrefs; i++ {
		if len(block) == 0 {
			return bad(i, "block ends %d references early", nrefs-i)
		}
		ctl := block[0]
		block = block[1:]
		if ctl&ctlReserved != 0 {
			return bad(i, "reserved control bits %#02x set", ctl&ctlReserved)
		}
		_, n := readUvarint(block)
		if n <= 0 {
			return bad(i, "bad address delta varint")
		}
		block = block[n:]
		if ctl&ctlSize != 0 {
			v, n := readUvarint(block)
			if n <= 0 {
				return bad(i, "bad size varint")
			}
			if v > 255 {
				return bad(i, "size %d exceeds 255", v)
			}
			block = block[n:]
		}
		if ctl&ctlWork != 0 {
			v, n := readUvarint(block)
			if n <= 0 {
				return bad(i, "bad work varint")
			}
			if v > 1<<32-1 {
				return bad(i, "work %d exceeds uint32", v)
			}
			block = block[n:]
		}
	}
	if len(block) != 0 {
		return fmt.Errorf("trace: cpu %d: %d trailing bytes after %d references", cpu, len(block), nrefs)
	}
	return nil
}

// Encoder builds a binary trace incrementally, one reference at a
// time per CPU; File finalizes it. The per-CPU delta state mirrors
// the decoder's.
type Encoder struct {
	counts []uint64
	bufs   [][]byte
	prev   []uint64
	size   []uint8
}

// NewEncoder returns an encoder for a trace with ncpus streams.
func NewEncoder(ncpus int) (*Encoder, error) {
	if ncpus < 1 || ncpus > MaxFileCPUs {
		return nil, fmt.Errorf("trace: %d CPUs (want 1..%d)", ncpus, MaxFileCPUs)
	}
	e := &Encoder{
		counts: make([]uint64, ncpus),
		bufs:   make([][]byte, ncpus),
		prev:   make([]uint64, ncpus),
		size:   make([]uint8, ncpus),
	}
	for i := range e.size {
		e.size[i] = initialSize
	}
	return e, nil
}

// Add appends one reference to a CPU's stream.
func (e *Encoder) Add(cpu int, r Ref) error {
	if cpu < 0 || cpu >= len(e.bufs) {
		return fmt.Errorf("trace: cpu %d out of range (trace has %d)", cpu, len(e.bufs))
	}
	if r.Kind > Prefetch {
		return fmt.Errorf("trace: cpu %d: unknown reference kind %d", cpu, r.Kind)
	}
	ctl := byte(r.Kind)
	if r.Size != e.size[cpu] {
		ctl |= ctlSize
	}
	if r.Work != 0 {
		ctl |= ctlWork
	}
	b := append(e.bufs[cpu], ctl)
	b = binary.AppendUvarint(b, zigzag(int64(r.VAddr-e.prev[cpu])))
	if ctl&ctlSize != 0 {
		b = binary.AppendUvarint(b, uint64(r.Size))
		e.size[cpu] = r.Size
	}
	if ctl&ctlWork != 0 {
		b = binary.AppendUvarint(b, uint64(r.Work))
	}
	e.bufs[cpu] = b
	e.prev[cpu] = r.VAddr
	e.counts[cpu]++
	return nil
}

// File finalizes the encoder. The returned File aliases the encoder's
// buffers; do not Add afterwards.
func (e *Encoder) File() *File {
	f := &File{counts: e.counts, blocks: e.bufs}
	for i, b := range f.blocks {
		if b == nil {
			f.blocks[i] = []byte{}
		}
	}
	return f
}

// readUvarint decodes a canonical uvarint: truncated, overlong and
// non-minimal encodings all return n == 0, so every accepted field has
// exactly one byte representation.
func readUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || uvarintLen(v) != n {
		return 0, 0
	}
	return v, n
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// uvarintLen is the byte length of v's uvarint encoding: seven payload
// bits per byte, and zero still takes one byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
