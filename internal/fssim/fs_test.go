package fssim

import (
	"strings"
	"testing"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

func run(t *testing.T, program func(l *eventloop.Loop, fs *FS)) *eventloop.Loop {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 10_000})
	fs := New(l)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l, fs)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	return l
}

func cb(name string, f func(err, res vm.Value)) *vm.Function {
	return vm.NewFunc(name, func(args []vm.Value) vm.Value {
		f(vm.Arg(args, 0), vm.Arg(args, 1))
		return vm.Undefined
	})
}

func TestReadSeededFile(t *testing.T) {
	var got string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/etc/config", []byte("key=value"))
		fs.ReadFile(loc.Here(), "/etc/config", cb("read", func(err, res vm.Value) {
			if !vm.IsUndefined(err) {
				t.Errorf("err = %v", err)
				return
			}
			got = string(res.([]byte))
		}))
	})
	if got != "key=value" {
		t.Fatalf("got = %q", got)
	}
}

func TestReadMissingFileDeliversENOENT(t *testing.T) {
	var errMsg string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.ReadFile(loc.Here(), "/missing", cb("read", func(err, res vm.Value) {
			errMsg = vm.ToString(err)
		}))
	})
	if !strings.Contains(errMsg, "ENOENT") {
		t.Fatalf("err = %q", errMsg)
	}
}

func TestCallbackIsAsynchronousAndInIOFlow(t *testing.T) {
	var order []string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/f", []byte("x"))
		fs.ReadFile(loc.Here(), "/f", cb("read", func(err, res vm.Value) {
			order = append(order, "callback")
			if got := l.Phase(); got != eventloop.PhaseNextTick {
				t.Errorf("delivery phase = %s, want nextTick (driver deferral)", got)
			}
		}))
		order = append(order, "sync")
	})
	if len(order) != 2 || order[0] != "sync" {
		t.Fatalf("order = %v", order)
	}
}

func TestWriteThenRead(t *testing.T) {
	var got string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.WriteFile(loc.Here(), "/out", []byte("written"), cb("write", func(err, _ vm.Value) {
			fs.ReadFile(loc.Here(), "/out", cb("read", func(err, res vm.Value) {
				got = string(res.([]byte))
			}))
		}))
	})
	if got != "written" {
		t.Fatalf("got = %q", got)
	}
}

func TestAppendFile(t *testing.T) {
	var got string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.AppendFile(loc.Here(), "/log", []byte("a"), cb("a1", func(err, _ vm.Value) {
			fs.AppendFile(loc.Here(), "/log", []byte("b"), cb("a2", func(err, _ vm.Value) {
				fs.ReadFile(loc.Here(), "/log", cb("read", func(err, res vm.Value) {
					got = string(res.([]byte))
				}))
			}))
		}))
	})
	if got != "ab" {
		t.Fatalf("got = %q", got)
	}
}

func TestStat(t *testing.T) {
	var st Stat
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/data", []byte("12345"))
		fs.Stat(loc.Here(), "/data", cb("stat", func(err, res vm.Value) {
			st = res.(Stat)
		}))
	})
	if st.Name != "/data" || st.Size != 5 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestUnlink(t *testing.T) {
	var secondErr string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/tmp/x", []byte("x"))
		fs.Unlink(loc.Here(), "/tmp/x", cb("rm", func(err, _ vm.Value) {
			fs.Unlink(loc.Here(), "/tmp/x", cb("rm2", func(err, _ vm.Value) {
				secondErr = vm.ToString(err)
			}))
		}))
	})
	if !strings.Contains(secondErr, "ENOENT") {
		t.Fatalf("second unlink err = %q", secondErr)
	}
}

func TestReaddir(t *testing.T) {
	var names []string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/srv/a.txt", []byte("1"))
		fs.Seed("/srv/b.txt", []byte("2"))
		fs.Seed("/srv/sub/c.txt", []byte("3"))
		fs.Seed("/other/z.txt", []byte("4"))
		fs.Readdir(loc.Here(), "/srv", cb("ls", func(err, res vm.Value) {
			names = res.([]string)
		}))
	})
	want := []string{"a.txt", "b.txt", "sub"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestPromiseInterface(t *testing.T) {
	var got string
	var rejected string
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/p", []byte("promised"))
		fs.ReadFileP(loc.Here(), "/p").
			Then(loc.Here(), vm.NewFunc("use", func(args []vm.Value) vm.Value {
				got = string(args[0].([]byte))
				return vm.Undefined
			}), nil).
			Catch(loc.Here(), vm.NewFunc("err", func(args []vm.Value) vm.Value { return vm.Undefined }))
		fs.ReadFileP(loc.Here(), "/absent").
			Catch(loc.Here(), vm.NewFunc("err", func(args []vm.Value) vm.Value {
				rejected = vm.ToString(args[0])
				return vm.Undefined
			}))
	})
	if got != "promised" {
		t.Fatalf("got = %q", got)
	}
	if !strings.Contains(rejected, "ENOENT") {
		t.Fatalf("rejected = %q", rejected)
	}
}

func TestWriteFilePReportsCompletion(t *testing.T) {
	done := false
	run(t, func(l *eventloop.Loop, fs *FS) {
		fs.WriteFileP(loc.Here(), "/wp", []byte("v")).
			Then(loc.Here(), vm.NewFunc("done", func(args []vm.Value) vm.Value {
				done = fs.Exists("/wp")
				return vm.Undefined
			}), nil).
			Catch(loc.Here(), vm.NewFunc("err", func(args []vm.Value) vm.Value { return vm.Undefined }))
	})
	if !done {
		t.Fatal("write not visible at fulfillment")
	}
}

func TestLatencyAdvancesClock(t *testing.T) {
	l := run(t, func(l *eventloop.Loop, fs *FS) {
		fs.Seed("/f", []byte("x"))
		fs.ReadFile(loc.Here(), "/f", cb("read", func(err, res vm.Value) {}))
	})
	if l.Now() < Latency {
		t.Fatalf("clock = %v", l.Now())
	}
}

func TestDataIsCopiedNotAliased(t *testing.T) {
	run(t, func(l *eventloop.Loop, fs *FS) {
		buf := []byte("original")
		fs.WriteFile(loc.Here(), "/f", buf, cb("w", func(err, _ vm.Value) {
			fs.ReadFile(loc.Here(), "/f", cb("r", func(err, res vm.Value) {
				got := res.([]byte)
				got[0] = 'X' // must not corrupt the stored file
				fs.ReadFile(loc.Here(), "/f", cb("r2", func(err, res vm.Value) {
					if string(res.([]byte)) != "original" {
						t.Errorf("stored file mutated: %q", res)
					}
					return
				}))
			}))
		}))
		buf[0] = 'Y' // must not affect the pending write
	})
}
