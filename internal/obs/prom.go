package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricFamily is one metric name in parsed exposition form: metadata
// plus its flattened samples. It is both what Registry.Gather emits and
// what ParseExposition returns, so the gateway can merge its own
// registry with relabelled member scrapes through one shape.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary or untyped
	Samples []Sample
}

// Sample is one exposition line: a (possibly suffixed) sample name, its
// labels in emission order, and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// WriteExposition renders families as Prometheus text exposition
// (version 0.0.4), in the order given.
func WriteExposition(w io.Writer, fams []MetricFamily) error {
	bw := bufio.NewWriter(w)
	for _, mf := range fams {
		if mf.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", mf.Name, helpEscaper.Replace(mf.Help))
		}
		typ := mf.Type
		if typ == "" {
			typ = "untyped"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", mf.Name, typ)
		for _, s := range mf.Samples {
			bw.WriteString(s.Name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					bw.WriteString(labelEscaper.Replace(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// The exposition format's only escapes: HELP text escapes backslash
// and newline, label values also the double quote. Anything else (a
// tab, a control byte) is written raw, so it reads back as itself.
var (
	helpEscaper   = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
	labelEscaper  = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// ParseExposition parses Prometheus text exposition into families.
// Samples are attached to the family named by their base name (the
// sample name with any _bucket/_sum/_count suffix stripped when that
// family is a histogram or summary). Unknown constructs fail loudly —
// the gateway would rather drop a member's scrape than forward garbage.
func ParseExposition(r io.Reader) ([]MetricFamily, error) {
	var (
		order []string
		byN   = make(map[string]*MetricFamily)
	)
	fam := func(name string) *MetricFamily {
		if f, ok := byN[name]; ok {
			return f
		}
		f := &MetricFamily{Name: name}
		byN[name] = f
		order = append(order, name)
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(scanLF)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		text := strings.TrimRight(raw, " \t\r")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			// HELP text runs to the end of the raw line: trailing
			// blanks are part of it.
			kind, name, rest, ok := parseComment(raw)
			if !ok {
				continue // free-form comment
			}
			f := fam(name)
			if kind == "HELP" {
				f.Help = helpUnescaper.Replace(rest)
			} else {
				f.Type = strings.TrimRight(rest, " \t\r")
			}
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %v", line, err)
		}
		f := fam(baseName(s.Name, byN))
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]MetricFamily, 0, len(order))
	for _, name := range order {
		out = append(out, *byN[name])
	}
	return out, nil
}

// scanLF splits lines at '\n' only. Unlike bufio.ScanLines it keeps a
// '\r' before the newline, which HELP text may end in.
func scanLF(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// parseComment splits "# HELP name rest" / "# TYPE name rest".
func parseComment(text string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return "", "", "", false
	}
	rest = ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	return fields[1], fields[2], rest, true
}

// baseName maps a sample name to its family: histogram/summary series
// carry _bucket/_sum/_count suffixes over the family name.
func baseName(name string, known map[string]*MetricFamily) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := known[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return name
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(text string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return s, fmt.Errorf("sample %q has no value", text)
	}
	s.Name = text[:i]
	rest := text[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value and optional timestamp, got %d fields", text, len(fields))
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %v", text, err)
	}
	s.Value = v
	return s, nil
}

// parseFloat accepts the exposition spellings of special values.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a {k="v",...} block, returning the remainder of
// the line.
func parseLabels(text string) ([]Label, string, error) {
	var out []Label
	rest := text[1:] // past '{'
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block in %q", text)
		}
		if rest[0] == '}' {
			return out, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' in %q", text)
		}
		name := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("label %q value is not quoted", name)
		}
		val, tail, err := unquoteLabel(rest)
		if err != nil {
			return nil, "", err
		}
		out = append(out, Label{Name: name, Value: val})
		rest = tail
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// unquoteLabel reads a quoted label value honouring \\, \" and \n
// escapes, returning the remainder.
func unquoteLabel(text string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(text); i++ {
		switch text[i] {
		case '\\':
			if i+1 >= len(text) {
				return "", "", fmt.Errorf("dangling escape in %q", text)
			}
			i++
			switch text[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(text[i])
			}
		case '"':
			return b.String(), text[i+1:], nil
		default:
			b.WriteByte(text[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value in %q", text)
}

// Relabel prepends one label to every sample of every family — the
// gateway's member="name" stamp on re-exported scrapes.
func Relabel(fams []MetricFamily, name, value string) []MetricFamily {
	out := make([]MetricFamily, len(fams))
	for i, mf := range fams {
		mf.Samples = append([]Sample(nil), mf.Samples...)
		for j, s := range mf.Samples {
			mf.Samples[j].Labels = append([]Label{{Name: name, Value: value}}, s.Labels...)
		}
		out[i] = mf
	}
	return out
}

// MergeFamilies merges src into dst by family name, keeping dst's
// metadata on collision and returning the union sorted by name.
func MergeFamilies(dst, src []MetricFamily) []MetricFamily {
	byN := make(map[string]*MetricFamily, len(dst))
	order := make([]string, 0, len(dst)+len(src))
	for i := range dst {
		byN[dst[i].Name] = &dst[i]
		order = append(order, dst[i].Name)
	}
	for i := range src {
		mf := src[i]
		if f, ok := byN[mf.Name]; ok {
			f.Samples = append(f.Samples, mf.Samples...)
			if f.Help == "" {
				f.Help = mf.Help
			}
			if f.Type == "" || f.Type == "untyped" {
				f.Type = mf.Type
			}
			continue
		}
		byN[mf.Name] = &src[i]
		order = append(order, mf.Name)
	}
	sort.Strings(order)
	out := make([]MetricFamily, 0, len(order))
	for _, name := range order {
		out = append(out, *byN[name])
	}
	return out
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintExposition is the promlint-style validator behind
// `doclint -promlint` and the CI live-scrape check. It parses the
// exposition and returns human-readable problems: bad metric or label
// names, missing or unknown TYPE lines, counters without a _total
// suffix, histograms missing their +Inf bucket or _sum/_count series,
// and duplicate samples.
func LintExposition(r io.Reader) []string {
	fams, err := ParseExposition(r)
	if err != nil {
		return []string{err.Error()}
	}
	if len(fams) == 0 {
		return []string{"exposition is empty: no metric families"}
	}
	var problems []string
	addf := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	seen := make(map[string]bool)
	for _, mf := range fams {
		if !metricNameRe.MatchString(mf.Name) {
			addf("metric %q: invalid metric name", mf.Name)
		}
		switch mf.Type {
		case "counter", "gauge", "histogram", "summary", "untyped":
		case "":
			addf("metric %q: no # TYPE line", mf.Name)
		default:
			addf("metric %q: unknown type %q", mf.Name, mf.Type)
		}
		if mf.Help == "" {
			addf("metric %q: no # HELP line", mf.Name)
		}
		if mf.Type == "counter" && !strings.HasSuffix(mf.Name, "_total") {
			addf("metric %q: counter names should end in _total", mf.Name)
		}
		if mf.Type == "histogram" {
			lintHistogram(mf, addf)
		}
		for _, s := range mf.Samples {
			if !validSampleName(mf, s.Name) {
				addf("metric %q: sample %q does not match the family name", mf.Name, s.Name)
			}
			key := s.Name + sampleKey(s.Labels)
			if seen[key] {
				addf("metric %q: duplicate sample %s%s", mf.Name, s.Name, sampleKey(s.Labels))
			}
			seen[key] = true
			for _, l := range s.Labels {
				if !labelNameRe.MatchString(l.Name) {
					addf("metric %q: invalid label name %q", mf.Name, l.Name)
				}
			}
		}
	}
	return problems
}

// validSampleName checks the sample name against its family, allowing
// the histogram/summary suffixes.
func validSampleName(mf MetricFamily, name string) bool {
	if name == mf.Name {
		return mf.Type != "histogram"
	}
	if mf.Type == "histogram" || mf.Type == "summary" {
		switch name {
		case mf.Name + "_bucket", mf.Name + "_sum", mf.Name + "_count":
			return true
		}
	}
	return false
}

// lintHistogram checks each labelled histogram series for a +Inf bucket
// and matching _sum/_count samples.
func lintHistogram(mf MetricFamily, addf func(string, ...interface{})) {
	type series struct{ inf, sum, count bool }
	byKey := make(map[string]*series)
	var order []string
	get := func(labels []Label) *series {
		var kept []Label
		for _, l := range labels {
			if l.Name != "le" {
				kept = append(kept, l)
			}
		}
		key := sampleKey(kept)
		if s, ok := byKey[key]; ok {
			return s
		}
		s := &series{}
		byKey[key] = s
		order = append(order, key)
		return s
	}
	for _, s := range mf.Samples {
		sr := get(s.Labels)
		switch s.Name {
		case mf.Name + "_bucket":
			for _, l := range s.Labels {
				if l.Name == "le" && l.Value == "+Inf" {
					sr.inf = true
				}
			}
		case mf.Name + "_sum":
			sr.sum = true
		case mf.Name + "_count":
			sr.count = true
		}
	}
	for _, key := range order {
		sr := byKey[key]
		if !sr.inf {
			addf("metric %q%s: histogram has no le=\"+Inf\" bucket", mf.Name, key)
		}
		if !sr.sum || !sr.count {
			addf("metric %q%s: histogram is missing _sum or _count", mf.Name, key)
		}
	}
}

// sampleKey renders labels canonically for duplicate detection.
func sampleKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}
