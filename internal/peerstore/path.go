package peerstore

import (
	"encoding/hex"
	"fmt"
	"strings"
)

// KeyFromPath extracts the raw fingerprint key from a peer-endpoint
// request path (PathPrefix + hex-encoded sha256 fingerprint).
func KeyFromPath(path string) (string, error) {
	hexKey := strings.TrimPrefix(path, PathPrefix)
	if hexKey == path || hexKey == "" || strings.Contains(hexKey, "/") {
		return "", fmt.Errorf("peerstore: path %q is not %s{fingerprint}", path, PathPrefix)
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil {
		return "", fmt.Errorf("peerstore: fingerprint %q is not hex: %v", hexKey, err)
	}
	if len(raw) != 32 {
		return "", fmt.Errorf("peerstore: fingerprint is %d bytes, want 32", len(raw))
	}
	return string(raw), nil
}
