package perfbench

/** Minimal JSON rendering for the result line and the run record. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  /** Renders maps, sequences, strings, booleans and numbers. */
  def render(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.iterator.map(render).mkString("[", ", ", "]")
    case other => str(other.toString)
  }
}
