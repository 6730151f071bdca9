// Package spec is the one key=val field binder under the repo's text
// grammars. topo, workload and phys specs, cmd/netlab's net options and
// exp.ParseParams' scenario (whose values are those grammars, so its
// terms are joined by ";") each declare a table of typed Fields bound to
// the members of the struct they fill; parsing, the canonical rendering,
// the key listing, the help and every error come from here, so a key is
// spelled once and a number is validated one way (fault.Parse borrows
// ParseInt and ParseFloat). Every refusal reads "<term>: <why>".
package spec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Field binds one key to one struct member.
type Field struct {
	key    string
	set    func(val string) error // parses val into the member
	get    func() string          // renders the member
	hidden bool                   // left out of String
	doc    string                 // what Usage says of the key
}

// Func binds a member read by parse and written by render, which must
// write what parse reads back: a member that is itself a grammar.
func Func[T any](key string, p *T, parse func(string) (T, error), render func(T) string) Field {
	return Field{key: key,
		set: func(val string) (err error) { *p, err = parse(val); return err },
		get: func() string { return render(*p) }}
}

// bind makes the field of a member that renders the way fmt prints it:
// an integer in decimal, a float in its shortest form that reads back.
func bind[T any](key string, p *T, parse func(string) (T, error)) Field {
	return Func(key, p, parse, func(v T) string { return fmt.Sprint(v) })
}

// List binds a slice member spelled as its elements joined by sep, each
// read by parse and written by render.
func List[T any](key string, p *[]T, sep string, parse func(string) (T, error), render func(T) string) Field {
	return Func(key, p, func(val string) ([]T, error) {
		var vs []T
		for _, s := range strings.Split(val, sep) {
			v, err := parse(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
		}
		return vs, nil
	}, func(vs []T) string {
		ss := make([]string, len(vs))
		for i, v := range vs {
			ss[i] = render(v)
		}
		return strings.Join(ss, sep)
	})
}

// Int binds an integer member.
func Int[T ~int | ~int64](key string, p *T) Field {
	return bind(key, p, func(s string) (T, error) { n, err := ParseInt(s, math.MinInt, math.MaxInt); return T(n), err })
}

// Float binds a float member; it takes finite values only.
func Float(key string, p *float64) Field { return bind(key, p, ParseFloat) }

// Duration binds a duration member spelled the Go way ("1ms", "1.5s").
func Duration(key string, p *time.Duration) Field { return bind(key, p, time.ParseDuration) }

// Millis binds a duration member spelled as a whole number of
// milliseconds (the *_ms keys).
func Millis(key string, p *time.Duration) Field {
	const most = math.MaxInt64 / int(time.Millisecond)
	return Func(key, p, func(s string) (time.Duration, error) {
		n, err := ParseInt(s, -most, most)
		return time.Duration(n) * time.Millisecond, err
	}, func(d time.Duration) string { return fmt.Sprint(d.Milliseconds()) })
}

// Bool binds a flag member spelled 0 or 1.
func Bool(key string, p *bool) Field {
	return Func(key, p, func(s string) (bool, error) {
		_, err := OneOf("0", "1")(s)
		return s == "1", err
	}, func(b bool) string { return map[bool]string{false: "0", true: "1"}[b] })
}

// Name binds a string member that must be one of names.
func Name(key string, p *string, names []string) Field { return bind(key, p, OneOf(names...)) }

// OneOf reads a name that must be one of names.
func OneOf(names ...string) func(string) (string, error) {
	return func(s string) (string, error) {
		if !slices.Contains(names, s) {
			return s, fmt.Errorf("want one of %s", strings.Join(names, ", "))
		}
		return s, nil
	}
}

// When makes String render the field only if cond holds: a key that
// means nothing for this value, or whose zero means "not given".
func (f Field) When(cond bool) Field {
	f.hidden = !cond
	return f
}

// Where makes Parse refuse a value unless ok — asked once the value is
// in the member — holds; want says what is accepted, for the error.
func (f Field) Where(want string, ok func() bool) Field {
	return f.Check(func() error {
		if !ok() {
			return errors.New("want " + want)
		}
		return nil
	})
}

// Check makes Parse refuse a value with the error check returns, asked
// once the value is in the member.
func (f Field) Check(check func() error) Field {
	set := f.set
	f.set = func(val string) error {
		err := set(val)
		if err == nil {
			err = check()
		}
		return err
	}
	return f
}

// Doc says what the key is for, in Usage.
func (f Field) Doc(text string) Field {
	f.doc = text
	return f
}

// Fields is one grammar's table, in canonical (rendering) order.
type Fields []Field

// Keys lists the keys in table order.
func (fs Fields) Keys() []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.key
	}
	return keys
}

// Shown lists the keys String renders, in table order.
func (fs Fields) Shown() []string { return fs.Only(fs.Keys()...).Keys() }

// Only keeps the fields String renders whose key is one of keys.
func (fs Fields) Only(keys ...string) Fields {
	return slices.DeleteFunc(slices.Clone(fs), func(f Field) bool { return f.hidden || !slices.Contains(keys, f.key) })
}

// Usage lists the keys one to a line, each as "key=" and its Doc.
func (fs Fields) Usage() string {
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = f.key + "=" + f.doc
	}
	return strings.Join(lines, "\n")
}

// Parse reads "key=val,key=val,…" into the bound members; blank text
// sets nothing. Terms are trimmed, and each key may be given once.
func (fs Fields) Parse(text string) error { return fs.ParseSep(text, ",") }

// ParseSep is Parse with the terms joined by sep: ";" for a table whose
// values are themselves ","-joined grammars.
func (fs Fields) ParseSep(text, sep string) error {
	if strings.TrimSpace(text) == "" {
		return nil
	}
	given := make([]bool, len(fs))
	for _, term := range strings.Split(text, sep) {
		term = strings.TrimSpace(term)
		key, val, ok := strings.Cut(term, "=")
		i := slices.IndexFunc(fs, func(f Field) bool { return f.key == key })
		switch {
		case !ok:
			return fmt.Errorf("%q: want key=val", term)
		case i < 0:
			return fmt.Errorf("%s: unknown key (keys: %s)", term, strings.Join(fs.Keys(), ", "))
		case given[i]:
			return fmt.Errorf("%s: key given twice", term)
		}
		given[i] = true
		if err := fs[i].set(val); err != nil {
			return fmt.Errorf("%s: %w", term, err)
		}
	}
	return nil
}

// String renders the fields When has not hidden as "key=val,key=val,…",
// the form Parse reads back to the same values.
func (fs Fields) String() string { return fs.Join(",") }

// Join is String with the terms joined by sep, the form ParseSep reads.
func (fs Fields) Join(sep string) string {
	var terms []string
	for _, f := range fs {
		if !f.hidden {
			terms = append(terms, f.key+"="+f.get())
		}
	}
	return strings.Join(terms, sep)
}

// ParseInt reads an integer in lo..hi. Float notation is taken when it
// names a whole number an int holds — the docs write a byte count as
// 1e6 — so 1e300 and 2.5 are refused rather than wrapped or truncated.
func ParseInt(s string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		f, ferr := strconv.ParseFloat(s, 64)
		if ferr != nil || f != math.Trunc(f) || f < math.MinInt || f >= math.MaxInt {
			return 0, errors.New("not an integer")
		}
		n = int(f)
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("not in %d..%d", lo, hi)
	}
	return n, nil
}

// ParseFloat reads a finite float: NaN and ±Inf, which every range
// comparison lets through, are refused here.
func ParseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, errors.New("not a finite number")
	}
	return f, nil
}
