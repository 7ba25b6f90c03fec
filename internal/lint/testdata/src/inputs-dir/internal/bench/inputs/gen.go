// Package inputs is a bench package that happens to share its base name
// with the one directory rpblint skips (benchmark/inputs): the unmarked
// goroutine below must be reported.
package inputs

func Generate(out []int) {
	done := make(chan struct{})
	go func() {
		for i := range out {
			out[i] = i
		}
		close(done)
	}()
	<-done
}
