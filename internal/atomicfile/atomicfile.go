// Package atomicfile writes files so that a reader, or a crash, never sees a
// partial one: the content goes to a hidden temp file beside the target, is
// fsynced, and only then renamed over the target.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write creates path with the content write produces. The temp file is named
// "." + base(path) + ".tmp-*" in path's directory, so directory scans that
// skip dot-files never pick it up. On any failure — in write, the fsync, the
// close or the rename — the temp file is removed and an existing file at path
// is left untouched.
func Write(path string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
