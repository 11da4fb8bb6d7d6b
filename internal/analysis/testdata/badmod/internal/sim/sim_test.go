// A test file of a deterministic-named package may read the wall clock:
// the loader skips _test.go files, so moonvet never sees this.
package sim

import (
	"testing"
	"time"
)

func TestTick(t *testing.T) {
	if Tick().After(time.Now()) {
		t.Fatal("clock ran backwards")
	}
}
