package wire

import (
	"fmt"

	"repro/internal/core"
)

// imageFields describes an object image — the byte form in which mobile
// objects travel and persist — as a record: its ACL entries, data items
// and methods are lists of sub-records. An image in the format from
// before records begins 0xD2, not a list, and is refused as ErrNotRecord.
func imageFields(c *Codec, img *core.Image) {
	c.ID("id", &img.ID)
	c.Str("class", &img.Class)
	c.Str("domain", &img.Domain)
	c.Bool("metaHidden", &img.MetaHidden)
	List(c, "metaACL", &img.MetaACL, aclFields)
	List(c, "fixedData", &img.FixedData, dataFields)
	List(c, "extData", &img.ExtData, dataFields)
	List(c, "fixedMethods", &img.FixedMethods, methodFields)
	List(c, "extMethods", &img.ExtMethods, methodFields)
	List(c, "invokeLevels", &img.InvokeLevels, methodFields)
}

func aclFields(c *Codec, e *core.ACLEntryImage) {
	c.Bool("allow", &e.Allow)
	c.ID("object", &e.Object)
	c.Str("domain", &e.Domain)
	byteField(c, "action", &e.Action)
}

func dataFields(c *Codec, d *core.DataItemImage) {
	c.Str("name", &d.Name)
	c.Value("value", &d.Value)
	byteField(c, "dynKind", &d.DynKind)
	c.Bool("visible", &d.Visible)
	List(c, "acl", &d.ACL, aclFields)
}

func methodFields(c *Codec, m *core.MethodImage) {
	c.Str("name", &m.Name)
	bodyFields(c, "body", &m.Body)
	bodyFields(c, "pre", &m.Pre)
	bodyFields(c, "post", &m.Post)
	c.Bool("visible", &m.Visible)
	List(c, "acl", &m.ACL, aclFields)
}

// bodyFields is a body descriptor as two fields of its method: the kind
// (0 for an absent pre- or post-procedure) and the registry name or the
// source. A body of another kind fails the decode.
func bodyFields(c *Codec, name string, d *core.BodyDescriptor) {
	text := d.Name
	if d.Kind == core.BodyScript {
		text = d.Source
	}
	byteField(c, name, &d.Kind)
	c.Str(name, &text)
	if c.op != opDecode || c.err != nil {
		return
	}
	switch {
	case d.Kind == core.BodyNative:
		d.Name = text
	case d.Kind == core.BodyScript:
		d.Source = text
	case d.Kind != 0 || text != "":
		c.err = fmt.Errorf("%w: %s: unknown body kind %d", ErrCodec, name, d.Kind)
	}
}

// byteField is a one-byte enumeration, sent as an integer.
func byteField[T ~uint8](c *Codec, name string, p *T) {
	n := int64(*p)
	c.Int(name, &n)
	if c.op != opDecode || c.err != nil {
		return
	}
	if uint64(n) > 0xFF {
		c.err = fmt.Errorf("%w: %s %d out of range", ErrCodec, name, n)
	}
	*p = T(n)
}

// EncodeImage serializes an object image.
func EncodeImage(img core.Image) []byte {
	return EncodeRecord(func(c *Codec) { imageFields(c, &img) })
}

// DecodeImage parses an object image, refusing foreign, truncated or
// trailing input. Decoding is in place (DecodeRecord): a byte-string data
// item making up at least half of b aliases it.
func DecodeImage(b []byte) (core.Image, error) {
	var img core.Image
	if err := DecodeRecord(b, func(c *Codec) { imageFields(c, &img) }); err != nil {
		return core.Image{}, err
	}
	return img, nil
}
