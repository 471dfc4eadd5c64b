package vec

import (
	"os"
	"regexp"
	"testing"
)

// TestHeadKernelSelected fails where /proc/cpuinfo lists avx2 but the
// dispatcher chose the portable body, so a broken CPUID check cannot
// fall back to it silently.
func TestHeadKernelSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info)
	if listed && !haveAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2, but Heads.Next runs the portable body")
	}
	t.Logf("avx2 listed: %v, AVX2 kernel selected: %v", listed, haveAVX2)
}
