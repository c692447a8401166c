package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWrite(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		existing string // content at the target before Write; "" = none
		write    func(f *os.File) error
		wantErr  error
		want     string // content at the target after Write; "" = none
	}{
		{
			name:  "success",
			write: func(f *os.File) error { _, err := f.WriteString("new"); return err },
			want:  "new",
		},
		{
			name: "failed write leaves no temp and no target",
			write: func(f *os.File) error {
				f.WriteString("partial")
				return boom
			},
			wantErr: boom,
		},
		{
			name:     "failed write keeps existing target",
			existing: "old",
			write: func(f *os.File) error {
				f.WriteString("partial")
				return boom
			},
			wantErr: boom,
			want:    "old",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			if tc.existing != "" {
				if err := os.WriteFile(path, []byte(tc.existing), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := Write(path, tc.write); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Write error = %v, want %v", err, tc.wantErr)
			}
			got, err := os.ReadFile(path)
			switch {
			case tc.want == "" && !os.IsNotExist(err):
				t.Errorf("target exists after failed write (err %v, content %q)", err, got)
			case tc.want != "" && string(got) != tc.want:
				t.Errorf("target = %q (err %v), want %q", got, err, tc.want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != "out.json" {
					t.Errorf("stray file %s left behind", e.Name())
				}
			}
		})
	}
}
