package vfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"multiverse/internal/linuxabi"
)

func TestMkdirWriteRead(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/f.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("read %q", data)
	}
}

func TestErrnos(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("/nope"); err != linuxabi.ENOENT {
		t.Errorf("missing file: %v", err)
	}
	if err := fs.Mkdir("/a/b"); err != linuxabi.ENOENT {
		t.Errorf("mkdir without parent: %v", err)
	}
	_ = fs.Mkdir("/d")
	if err := fs.Mkdir("/d"); err != linuxabi.EEXIST {
		t.Errorf("mkdir existing: %v", err)
	}
	if _, err := fs.ReadFile("/d"); err != linuxabi.EISDIR {
		t.Errorf("read dir: %v", err)
	}
	_ = fs.WriteFile("/f", []byte("x"))
	if _, err := fs.Open("/f/child", linuxabi.ORdonly); err != linuxabi.ENOTDIR {
		t.Errorf("walk through file: %v", err)
	}
}

func TestStat(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("12345"))
	st, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 5 || st.IsDir {
		t.Errorf("stat = %+v", st)
	}
	root, err := fs.Stat("/")
	if err != nil || !root.IsDir {
		t.Errorf("root stat = %+v, %v", root, err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/b", nil)
	_ = fs.WriteFile("/a", nil)
	_ = fs.Mkdir("/c")
	names, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestOpenCreateTruncAppend(t *testing.T) {
	fs := New()
	f, err := fs.Open("/new", linuxabi.OCreat|linuxabi.OWronly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}

	// O_TRUNC resets contents.
	f2, err := fs.Open("/new", linuxabi.OWronly|linuxabi.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 0 {
		t.Errorf("size after trunc = %d", f2.Size())
	}
	if _, err := f2.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}

	// O_APPEND writes at EOF regardless of position.
	f3, err := fs.Open("/new", linuxabi.OWronly|linuxabi.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := f3.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/new")
	if string(data) != "xyz" {
		t.Errorf("contents = %q", data)
	}
}

func TestReadAtEOFReturnsZero(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("ab"))
	f, _ := fs.Open("/f", linuxabi.ORdonly)
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("read = %d, %v", n, err)
	}
	n, err = f.Read(buf)
	if err != nil || n != 0 {
		t.Errorf("EOF read = %d, %v", n, err)
	}
}

func TestWriteWithoutWritePermission(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("x"))
	f, _ := fs.Open("/f", linuxabi.ORdonly)
	if _, err := f.Write([]byte("y")); err != linuxabi.EBADF {
		t.Errorf("write to O_RDONLY: %v", err)
	}
}

func TestSeekWhence(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("0123456789"))
	f, _ := fs.Open("/f", linuxabi.ORdonly)
	if pos, _ := f.Seek(4, SeekSet); pos != 4 {
		t.Errorf("SeekSet = %d", pos)
	}
	if pos, _ := f.Seek(2, SeekCur); pos != 6 {
		t.Errorf("SeekCur = %d", pos)
	}
	if pos, _ := f.Seek(-1, SeekEnd); pos != 9 {
		t.Errorf("SeekEnd = %d", pos)
	}
	if _, err := f.Seek(-100, SeekSet); err != linuxabi.EINVAL {
		t.Errorf("negative seek: %v", err)
	}
	if _, err := f.Seek(0, 42); err != linuxabi.EINVAL {
		t.Errorf("bad whence: %v", err)
	}
}

func TestWriteGrowsSparsely(t *testing.T) {
	fs := New()
	f, _ := fs.Open("/f", linuxabi.OCreat|linuxabi.ORdwr)
	if _, err := f.Seek(5, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("end")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/f")
	if !bytes.Equal(data, []byte{0, 0, 0, 0, 0, 'e', 'n', 'd'}) {
		t.Errorf("contents = %v", data)
	}
}

// TestTruncatedHoleReadsZero pins the zeroing of reused capacity: after a
// truncate the file's buffer still holds the old bytes, and a write past
// EOF must not let them reappear in the hole it leaves.
func TestTruncatedHoleReadsZero(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("old contents here"))
	f, err := fs.Open("/f", linuxabi.ORdwr|linuxabi.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(6, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := f.Read(buf)
	if want := []byte{0, 0, 0, 0, 0, 0, 'n', 'e', 'w'}; !bytes.Equal(buf[:n], want) {
		t.Errorf("contents = %q, want %q", buf[:n], want)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	_ = fs.Mkdir("/d")
	_ = fs.WriteFile("/d/f", nil)
	if err := fs.Remove("/d"); err != linuxabi.EINVAL {
		t.Errorf("removing non-empty dir: %v", err)
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != linuxabi.ENOENT {
		t.Errorf("removing twice: %v", err)
	}
}

func TestRelativePathsNormalized(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/x", []byte("1"))
	if _, err := fs.ReadFile("x"); err != nil {
		t.Errorf("relative path: %v", err)
	}
	if _, err := fs.ReadFile("/./x"); err != nil {
		t.Errorf("dot path: %v", err)
	}
	if _, err := fs.ReadFile("/a/../x"); err != nil {
		t.Errorf("dotdot path: %v", err)
	}
}

// Property: WriteFile then ReadFile round-trips arbitrary contents, and
// rewrites replace rather than append.
func TestWriteReadProperty(t *testing.T) {
	fs := New()
	prop := func(a, b []byte) bool {
		if err := fs.WriteFile("/p", a); err != nil {
			return false
		}
		got, err := fs.ReadFile("/p")
		if err != nil || !bytes.Equal(got, a) {
			return false
		}
		if err := fs.WriteFile("/p", b); err != nil {
			return false
		}
		got, err = fs.ReadFile("/p")
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
