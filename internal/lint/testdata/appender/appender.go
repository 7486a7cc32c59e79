// Package appender exercises the walappend analyzer: the sanctioned
// wrapper names (walAppendLane, walAppendBatch, checkpointLane) may
// call wal append methods directly; everything else must not.
package appender

import "fixture/wal"

type charge struct{}

type server struct{ wal *wal.MultiLog }

type Store struct{}

// walAppendLane is the single charged append path — sanctioned.
func (s *Store) walAppendLane(cg *charge, sv *server, lane int, t wal.RecordType, header, data []byte) {
	sv.wal.AppendV(lane, t, header, data)
}

// walAppendBatch is the AppendNV batch path — sanctioned.
func (s *Store) walAppendBatch(cg *charge, sv *server, lane int, specs []wal.AppendVSpec) {
	sv.wal.AppendNV(lane, specs)
}

// checkpointLane streams a checkpoint into its private lane — sanctioned.
func (sv *server) checkpointLane(lane int, t wal.RecordType, payload []byte) {
	sv.wal.AppendV(lane, t, payload, nil)
}

// rogueAppend bypasses lane routing and charge accounting.
func rogueAppend(sv *server) {
	sv.wal.AppendV(0, 0, nil, nil) // want `direct wal AppendV call outside the sanctioned append path`
}

func rogueBatch(sv *server, specs []wal.AppendVSpec) {
	sv.wal.AppendNV(0, specs) // want `direct wal AppendNV call outside the sanctioned append path`
}

func rogueLog(l *wal.Log) {
	l.Append(0, nil) // want `direct wal Append call outside the sanctioned append path`
}

// viaWrapper uses the sanctioned path — silent.
func viaWrapper(s *Store, sv *server) {
	s.walAppendLane(nil, sv, 0, 0, nil, nil)
}
