package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Record framing: every appended record is
//
//	[u32 length][u8 type][payload][u32 crc]
//
// with length = 1 + len(payload) (the type byte plus the payload), both
// integers little-endian, and crc the IEEE CRC-32 of the type byte followed
// by the payload. A torn tail — a partial header, a partial payload, or a
// CRC mismatch from a crash mid-write — is detected on open and truncated
// away; everything before it is intact by construction because records are
// appended strictly in order.
const (
	recHeaderLen  = 5 // u32 length + u8 type
	recTrailerLen = 4 // u32 crc
	// recMaxLen bounds a single record so a corrupted length field cannot
	// drive a giant allocation during recovery.
	recMaxLen = 16 << 20
)

// Record types.
const (
	recEvent    = 1
	recIncident = 2
	recAlert    = 3
)

// segment is one on-disk segment file of a segLog. The event-time bounds let
// window queries skip the segment without reading it; they are rebuilt from
// the segment bytes on open.
type segment struct {
	seq     int
	records int64
	bytes   int64
	firstT  int64
	lastT   int64
}

// segLog is an append-only, CRC-framed, segmented record log. The active
// (last) segment takes appends through a buffered writer; when an append
// would push it past segBytes it seals — flushed, synced, closed — and a
// new segment opens. Roll decisions are made per record against cumulative
// byte counts, so the segment layout is a pure function of the record stream
// and never depends on flush or sync cadence; that is what lets a resumed
// run's store converge byte-for-byte with an uninterrupted run's.
type segLog struct {
	dir      string
	prefix   string
	segBytes int64

	segs   []segment
	f      *os.File
	bw     *bufio.Writer // one per log, Reset onto each segment file
	active *segment      // == &segs[len(segs)-1]
	rec    []byte        // framing buffer append reuses for every record

	count int64 // records across all segments
}

func segName(prefix string, seq int) string { return fmt.Sprintf("%s-%06d.seg", prefix, seq) }
func (l *segLog) segPath(seq int) string    { return filepath.Join(l.dir, segName(l.prefix, seq)) }

// newSegLog creates an empty log with its first segment open.
func newSegLog(dir, prefix string, segBytes int64) (*segLog, error) {
	l := &segLog{dir: dir, prefix: prefix, segBytes: segBytes}
	if err := l.openSegment(1); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegLog reopens an existing log, scanning every segment, truncating any
// torn tail, and reopening the last segment for append. Missing files mean
// an empty log (a fresh first segment is created).
func openSegLog(dir, prefix string, segBytes int64) (*segLog, error) {
	l := &segLog{dir: dir, prefix: prefix, segBytes: segBytes}
	names, err := filepath.Glob(filepath.Join(dir, prefix+"-*.seg"))
	if err != nil {
		return nil, err
	}
	seqs := make([]int, 0, len(names))
	for _, n := range names {
		base := filepath.Base(n)
		num := strings.TrimSuffix(strings.TrimPrefix(base, prefix+"-"), ".seg")
		seq, err := strconv.Atoi(num)
		if err != nil {
			return nil, fmt.Errorf("store: stray segment file %s", base)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	if len(seqs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	torn := false
	for _, seq := range seqs {
		if torn {
			// Everything after a torn segment is unreachable garbage from a
			// crash mid-roll; drop it.
			os.Remove(l.segPath(seq))
			continue
		}
		seg, tornHere, err := l.scanSegment(seq)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.count += seg.records
		torn = tornHere
	}
	last := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(l.segPath(last.seq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.attach(f)
	l.active = last
	return l, nil
}

// scanSegment validates one segment record by record. A torn or corrupt tail
// truncates the file at the last valid record boundary; tornHere reports that
// this happened (later segments are then dropped by the caller).
func (l *segLog) scanSegment(seq int) (segment, bool, error) {
	seg := segment{seq: seq, firstT: -1, lastT: -1}
	path := l.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return seg, false, err
	}
	off := int64(0)
	torn := false
	for int64(len(data))-off >= recHeaderLen+recTrailerLen {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n < 1 || n > recMaxLen || off+4+n+recTrailerLen > int64(len(data)) {
			torn = true
			break
		}
		body := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(body) != crc {
			torn = true
			break
		}
		if t, ok := recordTime(body); ok {
			if seg.firstT < 0 {
				seg.firstT = t
			}
			seg.lastT = t
		}
		off += 4 + n + recTrailerLen
		seg.records++
	}
	if off != int64(len(data)) {
		torn = true
		if err := os.Truncate(path, off); err != nil {
			return seg, true, err
		}
	}
	seg.bytes = off
	return seg, torn, nil
}

// recordTime extracts the event's bit time from a framed body (type byte +
// payload). Event payloads are JSONL lines beginning {"t":N, so the time is
// parsed without a full JSON decode; incident payloads report no time.
func recordTime(body []byte) (int64, bool) {
	if len(body) < 1 || body[0] != recEvent {
		return 0, false
	}
	p := body[1:]
	const pre = `{"t":`
	if len(p) < len(pre)+1 || string(p[:len(pre)]) != pre {
		return 0, false
	}
	i := len(pre)
	var t int64
	neg := false
	if p[i] == '-' {
		neg = true
		i++
	}
	start := i
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		t = t*10 + int64(p[i]-'0')
		i++
	}
	if i == start {
		return 0, false
	}
	if neg {
		t = -t
	}
	return t, true
}

// openSegment creates and activates a fresh segment file.
func (l *segLog) openSegment(seq int) error {
	f, err := os.OpenFile(l.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, segment{seq: seq, firstT: -1, lastT: -1})
	l.attach(f)
	l.active = &l.segs[len(l.segs)-1]
	return nil
}

// attach makes f the file appends go to. The log's write buffer is allocated
// once and Reset onto each later file: at fast-forward event rates a 1 MiB
// segment rolls many times a second, and a 64 KiB buffer per segment would
// be steady garbage. Callers flush the buffer before they switch files.
func (l *segLog) attach(f *os.File) {
	l.f = f
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(f, 64<<10)
		return
	}
	l.bw.Reset(f)
}

// seal closes the active segment: flush, fsync, close.
func (l *segLog) seal() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return l.f.Close()
}

// append frames and writes one record, rolling the active segment first when
// the record would push it past segBytes.
func (l *segLog) append(typ byte, payload []byte, t int64) (int64, error) {
	recLen := int64(recHeaderLen + len(payload) + recTrailerLen)
	if l.active.bytes > 0 && l.active.bytes+recLen > l.segBytes {
		if err := l.seal(); err != nil {
			return 0, err
		}
		if err := l.openSegment(l.active.seq + 1); err != nil {
			return 0, err
		}
	}
	// Frame the whole record in the reused buffer so it costs one CRC pass
	// over [type|payload] and one buffered write, with nothing allocated.
	r := binary.LittleEndian.AppendUint32(l.rec[:0], uint32(1+len(payload)))
	r = append(r, typ)
	r = append(r, payload...)
	r = binary.LittleEndian.AppendUint32(r, crc32.ChecksumIEEE(r[4:]))
	l.rec = r
	if _, err := l.bw.Write(r); err != nil {
		return 0, err
	}
	a := l.active
	a.bytes += recLen
	a.records++
	if typ == recEvent {
		if a.firstT < 0 {
			a.firstT = t
		}
		a.lastT = t
	}
	l.count++
	return recLen, nil
}

// flush pushes buffered writes to the OS.
func (l *segLog) flush() error { return l.bw.Flush() }

// sync flushes and fsyncs the active segment.
func (l *segLog) sync() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// close flushes and closes the active segment without sealing it (it reopens
// as the active tail on the next open).
func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// truncate rewinds the log to exactly n records: the segment holding record
// n is cut at that record's boundary and reopened as the active tail, and
// every later segment is deleted. This is the recovery protocol's rewind to
// a checkpoint cursor — the un-checkpointed tail is regenerated bit-identical
// by the resumed simulation.
func (l *segLog) truncate(n int64) error {
	if n > l.count {
		return fmt.Errorf("store: truncate %s to %d records but only %d on disk", l.prefix, n, l.count)
	}
	if n == l.count {
		return nil
	}
	if err := l.close(); err != nil {
		return err
	}
	// Find the segment holding record n (the first kept-count records of it).
	var cum int64
	cut := len(l.segs) - 1
	var keep int64
	for i := range l.segs {
		if cum+l.segs[i].records >= n {
			cut, keep = i, n-cum
			break
		}
		cum += l.segs[i].records
	}
	for _, s := range l.segs[cut+1:] {
		if err := os.Remove(l.segPath(s.seq)); err != nil {
			return err
		}
	}
	l.segs = l.segs[:cut+1]
	seg := &l.segs[cut]
	// Re-scan the kept prefix for the byte offset and time bounds.
	off, firstT, lastT, err := l.offsetOfRecord(seg.seq, keep)
	if err != nil {
		return err
	}
	if err := os.Truncate(l.segPath(seg.seq), off); err != nil {
		return err
	}
	seg.bytes, seg.records, seg.firstT, seg.lastT = off, keep, firstT, lastT
	f, err := os.OpenFile(l.segPath(seg.seq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.attach(f)
	l.active = seg
	l.count = cum + keep
	return nil
}

// offsetOfRecord returns the byte offset just past the keep-th record of a
// segment, plus the event-time bounds of the kept prefix.
func (l *segLog) offsetOfRecord(seq int, keep int64) (off, firstT, lastT int64, err error) {
	firstT, lastT = -1, -1
	if keep == 0 {
		return 0, firstT, lastT, nil
	}
	data, err := os.ReadFile(l.segPath(seq))
	if err != nil {
		return 0, 0, 0, err
	}
	for i := int64(0); i < keep; i++ {
		if int64(len(data))-off < recHeaderLen+recTrailerLen {
			return 0, 0, 0, fmt.Errorf("store: %s segment %d shorter than %d records", l.prefix, seq, keep)
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if t, ok := recordTime(data[off+4 : off+4+n]); ok {
			if firstT < 0 {
				firstT = t
			}
			lastT = t
		}
		off += 4 + n + recTrailerLen
	}
	return off, firstT, lastT, nil
}

// iterate streams every record of the log in append order through fn, which
// receives the record type and payload (valid only during the call). Segments
// whose event-time range falls entirely outside [fromT, toT] are skipped via
// their bounds (use math.MinInt64/MaxInt64 to scan everything); records are
// still delivered unfiltered within visited segments — callers filter.
func (l *segLog) iterate(fromT, toT int64, fn func(typ byte, payload []byte) error) error {
	if err := l.flush(); err != nil {
		return err
	}
	for _, seg := range l.segs {
		if seg.records == 0 {
			continue
		}
		if seg.firstT >= 0 && (seg.lastT < fromT || seg.firstT > toT) {
			continue
		}
		if err := l.iterateSegment(seg.seq, fn); err != nil {
			return err
		}
	}
	return nil
}

// iterateSegment streams one segment's records.
func (l *segLog) iterateSegment(seq int, fn func(typ byte, payload []byte) error) error {
	f, err := os.Open(l.segPath(seq))
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	var hdr [recHeaderLen]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		if n < 1 || n > recMaxLen {
			return fmt.Errorf("store: corrupt record length %d in %s", n, segName(l.prefix, seq))
		}
		if cap(buf) < n+recTrailerLen {
			buf = make([]byte, n+recTrailerLen)
		}
		buf = buf[:n+recTrailerLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return err
		}
		crc := binary.LittleEndian.Uint32(buf[n:])
		if crc32.ChecksumIEEE(buf[:n]) != crc {
			return fmt.Errorf("store: CRC mismatch in %s", segName(l.prefix, seq))
		}
		if err := fn(buf[0], buf[1:n]); err != nil {
			return err
		}
	}
}

// diskBytes sums the on-disk size of every segment.
func (l *segLog) diskBytes() int64 {
	var total int64
	for _, s := range l.segs {
		total += s.bytes
	}
	return total
}

// writeFileAtomic writes data to path via a temp file + rename, so a crash
// never leaves a half-written file under the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
