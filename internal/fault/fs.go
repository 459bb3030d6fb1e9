package fault

import (
	"io/fs"
	"os"
)

// FS abstracts the filesystem operations the persistent store performs, so a
// fault registry can sit between the store and the OS. The operation set is
// exactly what internal/store needs — this is an injection seam, not a
// general VFS.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
}

// File is the open-file surface the store uses: it reads whole files with
// FS.ReadFile, so an open file is only written, synced and closed.
type File interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// OS returns the passthrough FS over the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Inject wraps inner so that the registry's fs.* failpoints intercept every
// operation:
//
//	fs.open    OpenFile
//	fs.read    ReadFile, ReadDir
//	fs.write   WriteAt (Spec.Torn persists a prefix first)
//	fs.sync    Sync
//
// A fired point imposes its latency, then (for Err points) fails the
// operation with ErrInjected. A torn WriteAt persists the configured prefix
// through the inner file before failing, modelling a crash in the middle of
// overwriting a slot file. Close, MkdirAll and Remove pass through
// unwrapped: the store's failure handling for them is exercised via the
// open/read/write points, and injecting into cleanup paths only makes chaos
// runs leave debris behind.
func Inject(inner FS, reg *Registry) FS {
	return &injectFS{inner: inner, reg: reg}
}

type injectFS struct {
	inner FS
	reg   *Registry
}

// eval applies one point's decision, returning the error to surface (nil to
// proceed with the real operation).
func (f *injectFS) eval(name string) Outcome {
	out := f.reg.Eval(name)
	if out.Latency > 0 {
		sleep(out.Latency)
	}
	return out
}

func (f *injectFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *injectFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if out := f.eval("fs.read"); out.Err != nil {
		return nil, out.Err
	}
	return f.inner.ReadDir(name)
}

func (f *injectFS) ReadFile(name string) ([]byte, error) {
	if out := f.eval("fs.read"); out.Err != nil {
		return nil, out.Err
	}
	return f.inner.ReadFile(name)
}

func (f *injectFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *injectFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if out := f.eval("fs.open"); out.Err != nil {
		return nil, out.Err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{inner: file, fs: f}, nil
}

type injectFile struct {
	inner File
	fs    *injectFS
}

func (f *injectFile) WriteAt(p []byte, off int64) (int, error) {
	if out := f.fs.eval("fs.write"); out.Err != nil {
		n := 0
		if torn := int(out.Torn * float64(len(p))); torn > 0 {
			// A torn write: the prefix reaches the platter, the rest never
			// does, and the caller sees a failure — exactly the shape a slot
			// record's CRC must refuse.
			n, _ = f.inner.WriteAt(p[:torn], off)
		}
		return n, out.Err
	}
	return f.inner.WriteAt(p, off)
}

func (f *injectFile) Sync() error {
	if out := f.fs.eval("fs.sync"); out.Err != nil {
		return out.Err
	}
	return f.inner.Sync()
}

func (f *injectFile) Close() error { return f.inner.Close() }
