// Package wal is a stub of the real WAL surface: the append entry
// points the walappend analyzer polices. Inside the wal package itself
// appends are, of course, allowed.
package wal

type RecordType uint8

type AppendVSpec struct {
	Type    RecordType
	Payload []byte
}

type Log struct{ n int64 }

func (l *Log) Append(t RecordType, b []byte) (int64, int, error) {
	l.n++
	return l.n, len(b), nil
}

type MultiLog struct{ lanes []Log }

func (m *MultiLog) AppendV(lane int, t RecordType, header, data []byte) (int64, int, error) {
	return m.lanes[lane].Append(t, header)
}

func (m *MultiLog) AppendVSum(lane int, t RecordType, header, data []byte, sum uint32) (int64, int, error) {
	return m.lanes[lane].Append(t, header)
}

// AppendVSumView is an append entry point neither analyzer lists.
func (m *MultiLog) AppendVSumView(lane int, t RecordType, header, data []byte, sum uint32) (int64, int, []byte, error) { // want `wal MultiLog.AppendVSumView is an append method \w+ does not list`
	n, k, err := m.lanes[lane].Append(t, header)
	return n, k, data, err
}

func (m *MultiLog) AppendNV(lane int, specs []AppendVSpec) (int64, int, error) {
	var last int64
	for _, sp := range specs {
		last, _, _ = m.lanes[lane].Append(sp.Type, sp.Payload)
	}
	return last, len(specs), nil
}
