package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"genedit/internal/sqldb"
)

// refParseDate and refToChar are the original fmt-based date kernel, kept
// verbatim as the differential oracle for the allocation-free rewrite: the
// rewrite must agree with them on the parsed parts, the output string and
// the error text for every input.
func refParseDate(s string) (dateParts, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	fields := strings.Split(s, "-")
	bad := func() (dateParts, error) {
		return dateParts{}, execErrf("cannot interpret %q as a date", s)
	}
	if len(fields) < 2 || len(fields) > 3 {
		return bad()
	}
	var d dateParts
	if _, err := fmt.Sscanf(fields[0], "%d", &d.year); err != nil || len(fields[0]) != 4 {
		return bad()
	}
	if _, err := fmt.Sscanf(fields[1], "%d", &d.month); err != nil || d.month < 1 || d.month > 12 {
		return bad()
	}
	d.day = 1
	if len(fields) == 3 {
		if _, err := fmt.Sscanf(fields[2], "%d", &d.day); err != nil || d.day < 1 || d.day > 31 {
			return bad()
		}
	}
	return d, nil
}

func refToChar(dateStr, format string) (string, error) {
	d, err := refParseDate(dateStr)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	i := 0
	for i < len(format) {
		switch {
		case strings.HasPrefix(format[i:], "YYYY"):
			fmt.Fprintf(&sb, "%04d", d.year)
			i += 4
		case strings.HasPrefix(format[i:], "MM"):
			fmt.Fprintf(&sb, "%02d", d.month)
			i += 2
		case strings.HasPrefix(format[i:], "DD"):
			fmt.Fprintf(&sb, "%02d", d.day)
			i += 2
		case format[i] == 'Q':
			fmt.Fprintf(&sb, "%d", (d.month-1)/3+1)
			i++
		case format[i] == '"':
			end := strings.IndexByte(format[i+1:], '"')
			if end < 0 {
				return "", execErrf("unterminated literal in TO_CHAR format %q", format)
			}
			sb.WriteString(format[i+1 : i+1+end])
			i += end + 2
		default:
			sb.WriteByte(format[i])
			i++
		}
	}
	return sb.String(), nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func checkParseDate(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseDate(s)
	want, wantErr := refParseDate(s)
	if got != want || errText(gotErr) != errText(wantErr) {
		t.Fatalf("parseDate(%q) = %+v, %s; reference %+v, %s", s, got, errText(gotErr), want, errText(wantErr))
	}
}

func checkToChar(t *testing.T, dateStr, format string) {
	t.Helper()
	got, gotErr := toChar(dateStr, format)
	want, wantErr := refToChar(dateStr, format)
	if got != want || errText(gotErr) != errText(wantErr) {
		t.Fatalf("toChar(%q, %q) = %q, %s; reference %q, %s", dateStr, format, got, errText(gotErr), want, errText(wantErr))
	}
}

// FuzzParseDate and FuzzToChar diff the kernel against the reference. Their
// seed corpora live in testdata/fuzz.
func FuzzParseDate(f *testing.F) {
	f.Fuzz(checkParseDate)
}

func FuzzToChar(f *testing.F) {
	for _, s := range []string{"2023-05-01", "2023-11", "2024-02-29 08:00:00"} {
		for _, format := range []string{`YYYY"Q"Q`, "YYYY-MM", "YYYY-MM-DD", `DD/MM/YYYY "x`} {
			f.Add(s, format)
		}
	}
	f.Fuzz(checkToChar)
}

// TestDateKernelQuirks pins the date-parsing behaviour that model SQL may
// rely on, including the Sscanf("%d") quirks the rewrite must keep. Each row
// is checked against both the kernel and the reference implementation.
func TestDateKernelQuirks(t *testing.T) {
	cases := []struct {
		in      string
		want    dateParts
		wantErr string
		yyyy    string // TO_CHAR(in, 'YYYY') when in parses
	}{
		{in: "2023-05-01", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		{in: "2023-05", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		{in: "2023-05-01 12:34:56", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		{in: "0000-01-01", want: dateParts{0, 1, 1}, yyyy: "0000"},
		// Leading spaces are trimmed and Sscanf ignores trailing junk.
		{in: " 2023-1x-05", want: dateParts{2023, 1, 5}, yyyy: "2023"},
		{in: "2023-05-01T10:00", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		// TrimSpace removes Unicode whitespace at both ends.
		{in: "2023-05-01\t", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		{in: "\u00a02023-05-01", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		// Unpadded fields and '+' signs are accepted.
		{in: "2023-5-1", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		{in: "+999-01-02", want: dateParts{999, 1, 2}, yyyy: "0999"},
		{in: "2023-+5-01", want: dateParts{2023, 5, 1}, yyyy: "2023"},
		// '-' is the field separator, so a leading minus makes four fields.
		{in: "-999-12-31", wantErr: `cannot interpret "-999-12-31" as a date`},
		{in: "2023-99999999999999999999-01", wantErr: `cannot interpret "2023-99999999999999999999-01" as a date`},
		{in: "2023-13-01", wantErr: `cannot interpret "2023-13-01" as a date`},
		{in: "2023-00", wantErr: `cannot interpret "2023-00" as a date`},
		{in: "2023-05-32", wantErr: `cannot interpret "2023-05-32" as a date`},
		{in: "2023-05-00 00:00:00", wantErr: `cannot interpret "2023-05-00" as a date`},
		{in: "20230-01-01", wantErr: `cannot interpret "20230-01-01" as a date`},
		{in: "2023", wantErr: `cannot interpret "2023" as a date`},
	}
	for _, c := range cases {
		wantErr := errText(nil)
		if c.wantErr != "" {
			wantErr = (&ExecError{Msg: c.wantErr}).Error()
		}
		for name, parse := range map[string]func(string) (dateParts, error){"kernel": parseDate, "reference": refParseDate} {
			if got, err := parse(c.in); got != c.want || errText(err) != wantErr {
				t.Errorf("%s(%q) = %+v, %s; want %+v, %s", name, c.in, got, errText(err), c.want, wantErr)
			}
		}
		checkToChar(t, c.in, "YYYY")
		if c.wantErr == "" {
			if got, _ := toChar(c.in, "YYYY"); got != c.yyyy {
				t.Errorf("toChar(%q, YYYY) = %q, want %q", c.in, got, c.yyyy)
			}
		}
	}
}

// TestDateKernelAllocs guards the allocation-free fast path: canonical
// dates parse and extract without allocating, and TO_CHAR allocates only
// its result string.
func TestDateKernelAllocs(t *testing.T) {
	for _, s := range []string{"2023-05-01", "2023-05", "2023-05-01 12:34:56"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = parseDate(s) }); n != 0 {
			t.Errorf("parseDate(%q): %.1f allocs/op, want 0", s, n)
		}
		args := []sqldb.Value{sqldb.Str(s)}
		for _, fn := range []string{"YEAR", "MONTH", "DAY", "QUARTER"} {
			if n := testing.AllocsPerRun(100, func() { _, _ = applyScalarFunc(fn, args) }); n != 0 {
				t.Errorf("%s(%q): %.1f allocs/op, want 0", fn, s, n)
			}
		}
		for _, format := range []string{`YYYY"Q"Q`, "YYYY-MM-DD"} {
			if n := testing.AllocsPerRun(100, func() { _, _ = toChar(s, format) }); n > 1 {
				t.Errorf("toChar(%q, %q): %.1f allocs/op, want <= 1", s, format, n)
			}
		}
	}
}

// BenchmarkDateKernels times the per-row date functions on canonical
// stored dates; run with -benchmem to see allocations per call.
func BenchmarkDateKernels(b *testing.B) {
	dates := []sqldb.Value{sqldb.Str("2023-05-01"), sqldb.Str("2024-11"), sqldb.Str("2022-02-28 08:30:00")}
	b.Run("parseDate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			_, _ = parseDate(dates[i%len(dates)].S)
		}
	})
	b.Run("YEAR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			_, _ = applyScalarFunc("YEAR", dates[i%len(dates):i%len(dates)+1])
		}
	})
	b.Run("TO_CHAR", func(b *testing.B) {
		b.ReportAllocs()
		args := []sqldb.Value{{}, sqldb.Str(`YYYY"Q"Q`)}
		for i := 0; b.Loop(); i++ {
			args[0] = dates[i%len(dates)]
			_, _ = applyScalarFunc("TO_CHAR", args)
		}
	})
}
