package mscript

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// BuiltinFunc is the signature of interpreter builtins.
type BuiltinFunc func(in *Interp, args []Val) (Val, error)

// builtins are resolved for bare-identifier calls not shadowed by a
// variable. They are pure except print (interpreter output sink) and
// error (raises).
var builtins = map[string]BuiltinFunc{
	"len":       biLen,
	"str":       biStr,
	"int":       biInt,
	"float":     biFloat,
	"bool":      biBool,
	"type":      biType,
	"print":     biPrint,
	"push":      biPush,
	"pop":       biPop,
	"keys":      biKeys,
	"has":       biHas,
	"remove":    biRemove,
	"slice":     biSlice,
	"contains":  biContains,
	"upper":     biUpper,
	"lower":     biLower,
	"trim":      biTrim,
	"split":     biSplit,
	"join":      biJoin,
	"abs":       biAbs,
	"min":       biMin,
	"max":       biMax,
	"error":     biError,
	"striphtml": biStripHTML,
	"sort":      biSort,
	"reverse":   biReverse,
	"indexof":   biIndexOf,
}

// IsBuiltin reports whether name is a builtin function.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

func argData(args []Val, i int, fn string) (value.Value, error) {
	if i >= len(args) {
		return value.Null, nil
	}
	d, err := args[i].Data()
	if err != nil {
		return value.Null, fmt.Errorf("%s: argument %d: %w", fn, i+1, err)
	}
	return d, nil
}

func need(args []Val, n int, fn string) error {
	if len(args) < n {
		return fmt.Errorf("%w: %s needs %d argument(s), got %d", ErrRuntime, fn, n, len(args))
	}
	return nil
}

func biLen(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "len"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "len")
	if err != nil {
		return NullVal, err
	}
	n := d.Len()
	if n < 0 {
		return NullVal, fmt.Errorf("%w: len of %s", ErrRuntime, d.Kind())
	}
	return FromValue(value.NewInt(int64(n))), nil
}

func coerceBuiltin(args []Val, k value.Kind, fn string) (Val, error) {
	if err := need(args, 1, fn); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, fn)
	if err != nil {
		return NullVal, err
	}
	c, err := value.Coerce(d, k)
	if err != nil {
		return NullVal, fmt.Errorf("%s: %w", fn, err)
	}
	return FromValue(c), nil
}

func biStr(_ *Interp, args []Val) (Val, error) {
	if len(args) == 1 && !args[0].IsData() {
		return FromValue(value.NewString(args[0].String())), nil
	}
	return coerceBuiltin(args, value.KindString, "str")
}

func biInt(_ *Interp, args []Val) (Val, error) {
	return coerceBuiltin(args, value.KindInt, "int")
}

func biFloat(_ *Interp, args []Val) (Val, error) {
	return coerceBuiltin(args, value.KindFloat, "float")
}

func biBool(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "bool"); err != nil {
		return NullVal, err
	}
	return FromValue(value.NewBool(args[0].Truthy())), nil
}

func biType(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "type"); err != nil {
		return NullVal, err
	}
	v := args[0]
	switch {
	case v.IsClosure():
		return FromValue(value.NewString("function")), nil
	case v.IsObject():
		return FromValue(value.NewString("object")), nil
	default:
		return FromValue(value.NewString(v.data.Kind().String())), nil
	}
}

func biPrint(in *Interp, args []Val) (Val, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	if in.out != nil {
		in.out(strings.Join(parts, " "))
	}
	return NullVal, nil
}

func biPush(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "push"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "push")
	if err != nil {
		return NullVal, err
	}
	l, ok := d.List()
	if !ok {
		return NullVal, fmt.Errorf("%w: push target is %s, not list", ErrRuntime, d.Kind())
	}
	e, err := argData(args, 1, "push")
	if err != nil {
		return NullVal, err
	}
	out := make([]value.Value, 0, len(l)+1)
	out = append(out, l...)
	out = append(out, e)
	return FromValue(value.NewList(out)), nil
}

func biPop(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "pop"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "pop")
	if err != nil {
		return NullVal, err
	}
	l, ok := d.List()
	if !ok || len(l) == 0 {
		return NullVal, fmt.Errorf("%w: pop of empty or non-list", ErrRuntime)
	}
	return FromValue(l[len(l)-1]), nil
}

func biKeys(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "keys"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "keys")
	if err != nil {
		return NullVal, err
	}
	m, ok := d.Map()
	if !ok {
		return NullVal, fmt.Errorf("%w: keys of %s", ErrRuntime, d.Kind())
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([]value.Value, len(ks))
	for i, k := range ks {
		out[i] = value.NewString(k)
	}
	return FromValue(value.NewList(out)), nil
}

func biHas(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "has"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "has")
	if err != nil {
		return NullVal, err
	}
	k, err := argData(args, 1, "has")
	if err != nil {
		return NullVal, err
	}
	m, ok := d.Map()
	if !ok {
		return NullVal, fmt.Errorf("%w: has on %s", ErrRuntime, d.Kind())
	}
	ks, err := value.Coerce(k, value.KindString)
	if err != nil {
		return NullVal, err
	}
	_, present := m[ks.String()]
	return FromValue(value.NewBool(present)), nil
}

func biRemove(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "remove"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "remove")
	if err != nil {
		return NullVal, err
	}
	k, err := argData(args, 1, "remove")
	if err != nil {
		return NullVal, err
	}
	m, ok := d.Map()
	if !ok {
		return NullVal, fmt.Errorf("%w: remove on %s", ErrRuntime, d.Kind())
	}
	ks, err := value.Coerce(k, value.KindString)
	if err != nil {
		return NullVal, err
	}
	out := make(map[string]value.Value, len(m))
	for key, v := range m {
		if key != ks.String() {
			out[key] = v
		}
	}
	return FromValue(value.NewMap(out)), nil
}

func biSlice(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 3, "slice"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "slice")
	if err != nil {
		return NullVal, err
	}
	fromV, err := argData(args, 1, "slice")
	if err != nil {
		return NullVal, err
	}
	toV, err := argData(args, 2, "slice")
	if err != nil {
		return NullVal, err
	}
	fi, err := value.Coerce(fromV, value.KindInt)
	if err != nil {
		return NullVal, err
	}
	ti, err := value.Coerce(toV, value.KindInt)
	if err != nil {
		return NullVal, err
	}
	from64, _ := fi.Int()
	to64, _ := ti.Int()
	from, to := int(from64), int(to64)
	n := d.Len()
	if n < 0 {
		return NullVal, fmt.Errorf("%w: slice of %s", ErrRuntime, d.Kind())
	}
	if from < 0 || to < from || to > n {
		return NullVal, fmt.Errorf("%w: slice bounds [%d:%d] of length %d", ErrRuntime, from, to, n)
	}
	switch d.Kind() {
	case value.KindList:
		l, _ := d.List()
		out := make([]value.Value, to-from)
		copy(out, l[from:to])
		return FromValue(value.NewList(out)), nil
	case value.KindString:
		s, _ := d.Str()
		return FromValue(value.NewString(s[from:to])), nil
	case value.KindBytes:
		b, _ := d.Bytes()
		out := make([]byte, to-from)
		copy(out, b[from:to])
		return FromValue(value.NewBytes(out)), nil
	default:
		return NullVal, fmt.Errorf("%w: slice of %s", ErrRuntime, d.Kind())
	}
}

func biContains(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "contains"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "contains")
	if err != nil {
		return NullVal, err
	}
	n, err := argData(args, 1, "contains")
	if err != nil {
		return NullVal, err
	}
	switch d.Kind() {
	case value.KindString:
		s, _ := d.Str()
		ns, err := value.Coerce(n, value.KindString)
		if err != nil {
			return NullVal, err
		}
		return FromValue(value.NewBool(strings.Contains(s, ns.String()))), nil
	case value.KindList:
		l, _ := d.List()
		for _, e := range l {
			if value.LooseEqual(e, n) {
				return FromValue(value.True), nil
			}
		}
		return FromValue(value.False), nil
	default:
		return NullVal, fmt.Errorf("%w: contains on %s", ErrRuntime, d.Kind())
	}
}

func stringFn(name string, f func(string) string) BuiltinFunc {
	return func(_ *Interp, args []Val) (Val, error) {
		if err := need(args, 1, name); err != nil {
			return NullVal, err
		}
		d, err := argData(args, 0, name)
		if err != nil {
			return NullVal, err
		}
		s, err := value.Coerce(d, value.KindString)
		if err != nil {
			return NullVal, err
		}
		return FromValue(value.NewString(f(s.String()))), nil
	}
}

var (
	biUpper     = stringFn("upper", strings.ToUpper)
	biLower     = stringFn("lower", strings.ToLower)
	biTrim      = stringFn("trim", strings.TrimSpace)
	biStripHTML = stringFn("striphtml", func(s string) string {
		return strings.TrimSpace(value.StripMarkup(s))
	})
)

func biSplit(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "split"); err != nil {
		return NullVal, err
	}
	sd, err := argData(args, 0, "split")
	if err != nil {
		return NullVal, err
	}
	sepd, err := argData(args, 1, "split")
	if err != nil {
		return NullVal, err
	}
	s, err := value.Coerce(sd, value.KindString)
	if err != nil {
		return NullVal, err
	}
	sep, err := value.Coerce(sepd, value.KindString)
	if err != nil {
		return NullVal, err
	}
	parts := strings.Split(s.String(), sep.String())
	out := make([]value.Value, len(parts))
	for i, p := range parts {
		out[i] = value.NewString(p)
	}
	return FromValue(value.NewList(out)), nil
}

func biJoin(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "join"); err != nil {
		return NullVal, err
	}
	ld, err := argData(args, 0, "join")
	if err != nil {
		return NullVal, err
	}
	sepd, err := argData(args, 1, "join")
	if err != nil {
		return NullVal, err
	}
	l, ok := ld.List()
	if !ok {
		return NullVal, fmt.Errorf("%w: join of %s", ErrRuntime, ld.Kind())
	}
	sep, err := value.Coerce(sepd, value.KindString)
	if err != nil {
		return NullVal, err
	}
	parts := make([]string, len(l))
	for i, e := range l {
		es, err := value.Coerce(e, value.KindString)
		if err != nil {
			return NullVal, err
		}
		parts[i] = es.String()
	}
	return FromValue(value.NewString(strings.Join(parts, sep.String()))), nil
}

func biAbs(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "abs"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "abs")
	if err != nil {
		return NullVal, err
	}
	if i, ok := d.Int(); ok {
		if i < 0 {
			return FromValue(value.NewInt(-i)), nil
		}
		return FromValue(d), nil
	}
	f, err := value.Coerce(d, value.KindFloat)
	if err != nil {
		return NullVal, err
	}
	fv, _ := f.Float()
	if fv < 0 {
		fv = -fv
	}
	return FromValue(value.NewFloat(fv)), nil
}

func extremum(name string, keepLeft func(cmp int) bool) BuiltinFunc {
	return func(_ *Interp, args []Val) (Val, error) {
		if err := need(args, 1, name); err != nil {
			return NullVal, err
		}
		best, err := argData(args, 0, name)
		if err != nil {
			return NullVal, err
		}
		for i := 1; i < len(args); i++ {
			d, err := argData(args, i, name)
			if err != nil {
				return NullVal, err
			}
			c, err := value.Compare(best, d)
			if err != nil {
				return NullVal, fmt.Errorf("%s: %w", name, err)
			}
			if !keepLeft(c) {
				best = d
			}
		}
		return FromValue(best), nil
	}
}

var (
	biMin = extremum("min", func(c int) bool { return c <= 0 })
	biMax = extremum("max", func(c int) bool { return c >= 0 })
)

func biError(_ *Interp, args []Val) (Val, error) {
	msg := "error raised by script"
	if len(args) > 0 {
		msg = args[0].String()
	}
	return NullVal, fmt.Errorf("%w: %s", ErrRuntime, msg)
}

// biSort returns a sorted copy of a list (elements must be mutually
// ordered under value.Compare).
func biSort(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "sort"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "sort")
	if err != nil {
		return NullVal, err
	}
	l, ok := d.List()
	if !ok {
		return NullVal, fmt.Errorf("%w: sort of %s", ErrRuntime, d.Kind())
	}
	out := make([]value.Value, len(l))
	copy(out, l)
	var sortErr error
	sort.SliceStable(out, func(i, j int) bool {
		c, err := value.Compare(out[i], out[j])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return NullVal, fmt.Errorf("sort: %w", sortErr)
	}
	return FromValue(value.NewList(out)), nil
}

// biReverse returns a reversed copy of a list or string.
func biReverse(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 1, "reverse"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "reverse")
	if err != nil {
		return NullVal, err
	}
	switch d.Kind() {
	case value.KindList:
		l, _ := d.List()
		out := make([]value.Value, len(l))
		for i, e := range l {
			out[len(l)-1-i] = e
		}
		return FromValue(value.NewList(out)), nil
	case value.KindString:
		s, _ := d.Str()
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return FromValue(value.NewString(string(b))), nil
	default:
		return NullVal, fmt.Errorf("%w: reverse of %s", ErrRuntime, d.Kind())
	}
}

// biIndexOf returns the first index of a needle in a list or string, -1 if
// absent.
func biIndexOf(_ *Interp, args []Val) (Val, error) {
	if err := need(args, 2, "indexof"); err != nil {
		return NullVal, err
	}
	d, err := argData(args, 0, "indexof")
	if err != nil {
		return NullVal, err
	}
	n, err := argData(args, 1, "indexof")
	if err != nil {
		return NullVal, err
	}
	switch d.Kind() {
	case value.KindList:
		l, _ := d.List()
		for i, e := range l {
			if value.LooseEqual(e, n) {
				return FromValue(value.NewInt(int64(i))), nil
			}
		}
		return FromValue(value.NewInt(-1)), nil
	case value.KindString:
		s, _ := d.Str()
		ns, err := value.Coerce(n, value.KindString)
		if err != nil {
			return NullVal, err
		}
		return FromValue(value.NewInt(int64(strings.Index(s, ns.String())))), nil
	default:
		return NullVal, fmt.Errorf("%w: indexof on %s", ErrRuntime, d.Kind())
	}
}
