package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// resultsFile holds the published rendering of every experiment at the
// default scale, one section per experiment in registry order.
const resultsFile = "results_full.txt"

// publishedCommitted is the scale results_full.txt was rendered at.
const publishedCommitted = 2_000_000

// output is one rendered experiment (or served job) and what it must
// equal.
type output struct {
	name string
	text string
}

// normalize ends a rendering the way simctrl prints it, so it can be
// compared to a section of results_full.txt.
func normalize(s string) string {
	if strings.HasSuffix(s, "\n\n") {
		return s
	}
	return s + "\n"
}

// sectionChecker compares renderings against results_full.txt. Outputs
// must be checked in registry order: each must appear verbatim after the
// previous one, starting at a section boundary and ending at one.
type sectionChecker struct{ full string }

// check returns one error per output that does not match its section
// (nil entries for matches).
func (c sectionChecker) check(outs []output) []error {
	errs := make([]error, len(outs))
	pos := 0
	for i, o := range outs {
		at := c.find(o.text, pos)
		if at < 0 {
			errs[i] = fmt.Errorf("%s: output differs from its section of %s", o.name, resultsFile)
			continue
		}
		pos = at + len(o.text)
	}
	return errs
}

// find returns the first offset >= from where text starts a section
// and is followed by the end of the file or the next section, so a
// rendering cut short inside its section does not match.
func (c sectionChecker) find(text string, from int) int {
	for from <= len(c.full) {
		i := strings.Index(c.full[from:], text)
		if i < 0 {
			return -1
		}
		at := from + i
		if (at == 0 || strings.HasSuffix(c.full[:at], "\n\n")) && startsSection(c.full[at+len(text):]) {
			return at
		}
		from = at + 1
	}
	return -1
}

// startsSection reports whether s is empty or opens with a section
// title: a non-empty line followed by a line of '='.
func startsSection(s string) bool {
	if s == "" {
		return true
	}
	title, rest, ok := strings.Cut(s, "\n")
	rule, _, _ := strings.Cut(rest, "\n")
	return ok && title != "" && rule != "" && strings.Trim(rule, "=") == ""
}

// goldenChecker compares renderings against files the benchmark owns,
// one per experiment, for scales other than the published one.
type goldenChecker struct{ dir string }

func (c goldenChecker) check(outs []output) []error {
	errs := make([]error, len(outs))
	for i, o := range outs {
		want, err := os.ReadFile(filepath.Join(c.dir, o.name+".txt"))
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("%s: %w", o.name, err)
		case string(want) != o.text:
			errs[i] = fmt.Errorf("%s: output differs from %s", o.name, filepath.Join(c.dir, o.name+".txt"))
		}
	}
	return errs
}

// pairChecker compares each output with an expected text computed
// locally for the same request.
type pairChecker struct{ want map[string]string }

func (c pairChecker) check(outs []output) []error {
	errs := make([]error, len(outs))
	for i, o := range outs {
		want, ok := c.want[o.name]
		if !ok {
			errs[i] = fmt.Errorf("%s: no local rendering to compare with", o.name)
		} else if want != o.text {
			errs[i] = fmt.Errorf("%s: served output differs from the local rendering", o.name)
		}
	}
	return errs
}

// checker is any of the above.
type checker interface{ check(outs []output) []error }

// batchChecker picks the expected outputs for a batch run at the given
// scale: results_full.txt at the published scale, else the goldens
// under perfbench/golden/c<committed>.
func batchChecker(root string, committed uint64) (checker, error) {
	if committed == publishedCommitted {
		full, err := os.ReadFile(filepath.Join(root, resultsFile))
		if err != nil {
			return nil, err
		}
		return sectionChecker{full: string(full)}, nil
	}
	dir := filepath.Join(root, "perfbench", "golden", fmt.Sprintf("c%d", committed))
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("no expected outputs at %d committed: %w", committed, err)
	}
	return goldenChecker{dir: dir}, nil
}

// failures counts the non-nil errors and reports each on stderr.
func failures(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: check: %v\n", err)
			n++
		}
	}
	return n
}

// selfTest proves the checker is live on this run's own outputs: with
// one byte of one passing output flipped, the checker must report a
// failure. It returns false when it does not (or when nothing passed).
func selfTest(c checker, outs []output, errs []error) bool {
	for i, o := range outs {
		if errs[i] != nil || o.text == "" {
			continue
		}
		flipped := append([]output(nil), outs...)
		b := []byte(o.text)
		b[len(b)/2] ^= 0x01
		flipped[i].text = string(b)
		return c.check(flipped)[i] != nil
	}
	return false
}

// digest hashes the outputs in order, so two commits can be checked
// for byte-identity at any seed and scale.
func digest(outs []output) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s\x00%d\x00%s", o.name, len(o.text), o.text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden directories (build output among them).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
