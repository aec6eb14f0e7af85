package wire

import (
	"fmt"
	"reflect"
)

// codec carries one struct payload type across the wire, under the name
// that identifies the type in a data frame.
type codec struct {
	name   string
	typ    reflect.Type
	append func(buf []byte, v any) ([]byte, error)
	decode func(b []byte) (any, error)
}

// codecs is the registration table. Register fills it from init functions,
// before any frame is encoded or decoded, so reading it needs no lock.
var codecs []*codec

// Register makes payloads of type T cross the wire. encode appends v's
// encoding to buf; decode turns exactly those bytes back into a value and
// must not retain b, which the frame reader reuses. name identifies T in
// every data frame, so the sending and the receiving process must register
// the same codec under the same name. Call Register only from an init
// function of a package both processes link. It panics when name or T
// already has a codec.
func Register[T any](name string, encode func(buf []byte, v T) ([]byte, error), decode func(b []byte) (T, error)) {
	c := &codec{
		name: name,
		typ:  reflect.TypeFor[T](),
		append: func(buf []byte, v any) ([]byte, error) {
			return encode(buf, v.(T))
		},
		decode: func(b []byte) (any, error) {
			v, err := decode(b)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	for _, o := range codecs {
		if o.name == name || o.typ == c.typ {
			panic(fmt.Sprintf("wire: codec %q for %v registered twice", name, c.typ))
		}
	}
	codecs = append(codecs, c)
}

// codecFor returns the codec registered for t, or nil.
func codecFor(t reflect.Type) *codec {
	for _, c := range codecs {
		if c.typ == t {
			return c
		}
	}
	return nil
}

// codecNamed returns the codec registered under name, or nil.
func codecNamed(name []byte) *codec {
	for _, c := range codecs {
		if c.name == string(name) {
			return c
		}
	}
	return nil
}
