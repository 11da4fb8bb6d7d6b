package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTo serializes the trace in a line-oriented text format:
//
//	# moon-trace v1
//	duration <seconds>
//	<start> <end>
//	...
//
// The format is stable and human-inspectable so traces can be archived with
// experiment results.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "# moon-trace v1\nduration %.6f\n", t.Duration)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, iv := range t.Outages {
		c, err = fmt.Fprintf(bw, "%.6f %.6f\n", iv.Start, iv.End)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}
