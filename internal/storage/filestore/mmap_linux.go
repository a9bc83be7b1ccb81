//go:build linux

package filestore

import (
	"os"
	"syscall"
)

// mmapFile maps length bytes of f read-only and shared, so pwrites
// through the fd are coherently visible to mapped reads.
func mmapFile(f *os.File, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, length, syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a window returned by mmapFile.
func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}
