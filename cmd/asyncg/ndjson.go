package main

import (
	"os"

	"asyncg/internal/explore"
)

// ndjsonSink is the -ndjson output of explore and fleet: run lines
// stream as the runs complete and flush per line, and close writes the
// classification even on a cancelled path, so the output always ends on
// a complete summary line. A nil sink (no -ndjson) does nothing.
type ndjsonSink struct {
	stream *explore.NDJSONStream
	file   *os.File // nil when the stream goes to stdout
	err    error    // the first write or close error
}

// openNDJSON opens the sink on path, "-" meaning stdout; an empty path
// means no sink.
func openNDJSON(path, target string) (*ndjsonSink, error) {
	if path == "" {
		return nil, nil
	}
	s := &ndjsonSink{}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.file, out = f, f
	}
	s.stream = explore.NewNDJSONStream(out, target)
	return s, nil
}

// progress is the exploration's progress callback: nil without a sink,
// otherwise one run line per completed run.
func (s *ndjsonSink) progress() func(explore.RunResult) {
	if s == nil {
		return nil
	}
	return func(rr explore.RunResult) { s.keep(s.stream.Run(rr)) }
}

// close finishes the stream with res, when there is one, closes the
// file, and returns the sink's first error.
func (s *ndjsonSink) close(res *explore.Result) error {
	if s == nil {
		return nil
	}
	if res != nil {
		s.keep(s.stream.Finish(res))
	}
	if s.file != nil {
		s.keep(s.file.Close())
	}
	return s.err
}

// keep records err unless an earlier error is kept already.
func (s *ndjsonSink) keep(err error) {
	if s.err == nil {
		s.err = err
	}
}
