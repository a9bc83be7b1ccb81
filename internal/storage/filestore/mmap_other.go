//go:build !linux

package filestore

import (
	"errors"
	"os"
)

// mmapFile reports mmap as unavailable; the store falls back to preads.
func mmapFile(f *os.File, length int) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

// munmapFile is never reached without a successful mmapFile.
func munmapFile(b []byte) error { return nil }
